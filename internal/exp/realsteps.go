package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
)

// Real-hardware counterpart of Table IV: wall-clock per-level times of
// the actual Go kernels on the machine running this code. Where the
// simulator answers "what would the paper's devices do", this answers
// "does direction switching pay off for real" — on the test machine it
// does (see EXPERIMENTS.md).

// RealStepByStep holds measured timings for the three engines.
type RealStepByStep struct {
	GraphVertices int
	GraphEdges    int64
	TopDown       *core.MeasuredTiming
	BottomUp      *core.MeasuredTiming
	Hybrid        *core.MeasuredTiming
}

// MeasuredStepByStep runs each engine repeats times on the default
// workload and keeps each engine's best run (standard practice for
// wall-clock microcomparisons).
func MeasuredStepByStep(cfg Config, repeats int) (*RealStepByStep, error) {
	cfg.setDefaults()
	if repeats <= 0 {
		repeats = 3
	}
	g, tr, _, err := cfg.workload()
	if err != nil {
		return nil, err
	}
	src := tr.Source

	best := func(policy func() bfs.Policy, name string) (*core.MeasuredTiming, error) {
		var winner *core.MeasuredTiming
		for i := 0; i < repeats; i++ {
			res, m, err := core.Measure(g, src, policy(), name, 0, nil)
			if err != nil {
				return nil, err
			}
			if err := bfs.Validate(g, res); err != nil {
				return nil, fmt.Errorf("exp: %s produced invalid result: %w", name, err)
			}
			if winner == nil || m.Total < winner.Total {
				winner = m
			}
		}
		return winner, nil
	}

	out := &RealStepByStep{GraphVertices: g.NumVertices(), GraphEdges: g.NumEdges()}
	if out.TopDown, err = best(func() bfs.Policy { return bfs.AlwaysTopDown }, "top-down"); err != nil {
		return nil, err
	}
	if out.BottomUp, err = best(func() bfs.Policy { return bfs.AlwaysBottomUp }, "bottom-up"); err != nil {
		return nil, err
	}
	if out.Hybrid, err = best(func() bfs.Policy { return bfs.MN{M: 64, N: 64} }, "hybrid"); err != nil {
		return nil, err
	}
	return out, nil
}

// Render prints the measured comparison.
func (r *RealStepByStep) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "graph: %d vertices, %d directed edges (wall clock on this machine)\n",
		r.GraphVertices, r.GraphEdges)
	fmt.Fprintln(tw, "level\ttop-down\tbottom-up\thybrid\t")
	maxLevels := len(r.TopDown.StepWall)
	if n := len(r.BottomUp.StepWall); n > maxLevels {
		maxLevels = n
	}
	if n := len(r.Hybrid.StepWall); n > maxLevels {
		maxLevels = n
	}
	cell := func(m *core.MeasuredTiming, i int) string {
		if i < len(m.StepWall) {
			return m.StepWall[i].String()
		}
		return "-"
	}
	for i := 0; i < maxLevels; i++ {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t\n", i+1,
			cell(r.TopDown, i), cell(r.BottomUp, i), cell(r.Hybrid, i))
	}
	fmt.Fprintf(tw, "total\t%v\t%v\t%v\t\n", r.TopDown.Total, r.BottomUp.Total, r.Hybrid.Total)
	fmt.Fprintf(tw, "MTEPS\t%.0f\t%.0f\t%.0f\t\n",
		r.TopDown.TEPS()/1e6, r.BottomUp.TEPS()/1e6, r.Hybrid.TEPS()/1e6)
	return tw.Flush()
}
