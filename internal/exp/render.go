package exp

import (
	"fmt"
	"io"
	"text/tabwriter"
)

func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// RenderFrontierProfiles prints Figs. 1/2 as one table per graph.
func RenderFrontierProfiles(w io.Writer, profiles []FrontierProfile) error {
	tw := newTable(w)
	for _, p := range profiles {
		fmt.Fprintf(tw, "SCALE=%d edgefactor=%d\n", p.Scale, p.EdgeFactor)
		fmt.Fprintln(tw, "level\t|V|cq\t|E|cq\t")
		for _, s := range p.Steps {
			fmt.Fprintf(tw, "%d\t%d\t%d\t\n", s.Step, s.FrontierVertices, s.FrontierEdges)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// RenderDirectionTimes prints Fig. 3.
func RenderDirectionTimes(w io.Writer, rows []DirectionTimes) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "level\ttop-down (s)\tbottom-up (s)\tfaster\t")
	for _, r := range rows {
		faster := "top-down"
		if r.BottomUp < r.TopDown {
			faster = "bottom-up"
		}
		fmt.Fprintf(tw, "%d\t%.6f\t%.6f\t%s\t\n", r.Step, r.TopDown, r.BottomUp, faster)
	}
	return tw.Flush()
}

// RenderBestM prints Table III.
func RenderBestM(w io.Writer, rows []BestMRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "SCALE\tedgefactor\tbest M\tbest N\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.0f\t\n", r.Scale, r.EdgeFactor, r.BestM, r.BestN)
	}
	return tw.Flush()
}

// RenderStrategies prints Fig. 8 as speedups over the worst switching
// point, plus the regression-vs-exhaustive quality the paper reports.
func RenderStrategies(w io.Writer, rows []StrategyRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\trandom\taverage\tregression\texhaustive\tquality\tpredicted\t")
	for _, r := range rows {
		rd, av, rg, ex := r.SpeedupOverWorst()
		fmt.Fprintf(tw, "%s\t%.1fx\t%.1fx\t%.1fx\t%.1fx\t%.0f%%\t%s\t\n",
			r.Label, rd, av, rg, ex, r.RegressionQuality()*100, r.Predicted)
	}
	return tw.Flush()
}

// RenderStepByStep prints Table IV: one row per level, one column per
// approach, speedups at the bottom.
func RenderStepByStep(w io.Writer, t *StepByStep) error {
	tw := newTable(w)
	fmt.Fprintf(tw, "graph: %d vertices, %d directed edges\n", t.GraphVertices, t.GraphEdges)
	fmt.Fprint(tw, "level")
	for _, timing := range t.Timings {
		fmt.Fprintf(tw, "\t%s", timing.Plan)
	}
	fmt.Fprintln(tw, "\t")
	maxSteps := 0
	for _, timing := range t.Timings {
		if len(timing.Steps) > maxSteps {
			maxSteps = len(timing.Steps)
		}
	}
	for i := 0; i < maxSteps; i++ {
		fmt.Fprintf(tw, "%d", i+1)
		for _, timing := range t.Timings {
			if i < len(timing.Steps) {
				st := timing.Steps[i]
				fmt.Fprintf(tw, "\t%.6f %s%s", st.Kernel+st.Transfer, st.Kind, st.Dir)
			} else {
				fmt.Fprint(tw, "\t0")
			}
		}
		fmt.Fprintln(tw, "\t")
	}
	fmt.Fprint(tw, "total")
	for _, timing := range t.Timings {
		fmt.Fprintf(tw, "\t%.6f", timing.Total)
	}
	fmt.Fprintln(tw, "\t")
	fmt.Fprint(tw, "speedup")
	base := t.Timings[0].Total
	for _, timing := range t.Timings {
		fmt.Fprintf(tw, "\t%.1fx", base/timing.Total)
	}
	fmt.Fprintln(tw, "\t")
	return tw.Flush()
}

// RenderCrossSpeedups prints Table V.
func RenderCrossSpeedups(w io.Writer, rows []CrossSpeedupRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "|V|\t|E|\tspeedup of CPUTD+GPUCB over GPUTD\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.0fx\t\n", r.Vertices, r.Edges, r.Speedup)
	}
	return tw.Flush()
}

// RenderCombinations prints Fig. 9.
func RenderCombinations(w io.Writer, rows []CombinationRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tMIC CB\tCPU CB\tGPU CB\tcross\tcross/MIC\tcross/CPU\tcross/GPU\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.1fx\t%.1fx\t%.1fx\t\n",
			r.Label, r.MIC, r.CPU, r.GPU, r.Cross,
			r.SpeedupOverMIC, r.SpeedupOverCPU, r.SpeedupOverGPU)
	}
	fmt.Fprintln(tw, "(GTEPS per combination; speedups are cross-architecture over each)")
	return tw.Flush()
}

// RenderScaling prints Fig. 10a or 10b.
func RenderScaling(w io.Writer, rows []ScalingRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "arch\tcores\tGTEPS\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t\n", r.Arch, r.Cores, r.GTEPS)
	}
	return tw.Flush()
}

// RenderAvgPerformance prints Table VI.
func RenderAvgPerformance(w io.Writer, rows []AvgPerformanceRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "vertices\tCPU\tGPU\tMIC\t(GTEPS)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\t\n", r.Vertices, r.CPU, r.GPU, r.MIC)
	}
	return tw.Flush()
}

// RenderComparisons prints the §V-D rows.
func RenderComparisons(w io.Writer, rows []ComparisonRow) error {
	tw := newTable(w)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1fx\t\n", r.Name, r.Speedup)
	}
	return tw.Flush()
}

// RenderHeuristics prints the heuristic comparison (extension table).
func RenderHeuristics(w io.Writer, rows []HeuristicRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tMN-oracle\tMN(64,64)\talpha/beta\tHong\tpure TD\tpure BU\toracle gain\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.2fx\t\n",
			r.Label, r.MNOracle, r.MNFixed, r.AlphaBeta, r.Hong, r.PureTD, r.PureBU, r.OracleGain)
	}
	fmt.Fprintln(tw, "(seconds per traversal on the CPU model; oracle gain = best alternative / tuned MN)")
	return tw.Flush()
}

// RenderMultiCoprocessor prints the Tianhe-2 extension sweep.
func RenderMultiCoprocessor(w io.Writer, rows []MultiCoprocessorRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "coprocessors\tGTEPS\tspeedup over 1\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%dx %s\t%.3f\t%.2fx\t\n", r.Coprocessors, r.Kind, r.GTEPS, r.SpeedupOver1)
	}
	return tw.Flush()
}

// RenderSharded prints the partitioned-BFS crossover sweep.
func RenderSharded(w io.Writer, rows []ShardedRow) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "ranks\tfabric\tGTEPS\tkernel s\texchange s\texchanged\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.6f\t%.6f\t%dB\t\n",
			r.Ranks, r.Fabric, r.GTEPS, r.KernelSeconds, r.ExchangeSec, r.ExchangedBytes)
	}
	fmt.Fprintln(tw, "(measured partitioned traversal, priced per fabric; kernel is the slowest shard)")
	return tw.Flush()
}
