package exp

import (
	"context"
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/graph"
	"crossbfs/internal/graph500"
	"crossbfs/internal/rmat"
	"crossbfs/internal/xmath"
)

// AvgPerformanceRow is one column of Table VI: harmonic-mean GTEPS per
// architecture for one data size, averaged over edge factors and
// Graph 500 roots.
type AvgPerformanceRow struct {
	Scale    int
	Vertices int
	CPU      float64 // GTEPS
	GPU      float64
	MIC      float64
}

// AveragePerformance drives Table VI: tuned combinations on each
// architecture across data sizes (the paper's 2M/4M/8M vertices,
// scaled down), averaged across edge factors {8, 16, 32}.
func AveragePerformance(cfg Config, scales []int) ([]AvgPerformanceRow, error) {
	cfg.setDefaults()
	if len(scales) == 0 {
		scales = []int{16, 17, 18}
	}
	archs := []archsim.Arch{archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()}
	var rows []AvgPerformanceRow
	for _, s := range scales {
		row := AvgPerformanceRow{Scale: s, Vertices: 1 << uint(s)}
		sums := make(map[archsim.Kind][]float64)
		for _, ef := range []int{8, 16, 32} {
			p := rmat.DefaultParams(s, ef)
			p.Seed = cfg.Seed
			g, err := rmat.Generate(p)
			if err != nil {
				return nil, err
			}
			teps, err := multiPlanTEPS(g, archs, cfg)
			if err != nil {
				return nil, err
			}
			for kind, v := range teps {
				sums[kind] = append(sums[kind], v)
			}
		}
		row.CPU = xmath.Mean(sums[archsim.CPU]) / 1e9
		row.GPU = xmath.Mean(sums[archsim.GPU]) / 1e9
		row.MIC = xmath.Mean(sums[archsim.MIC]) / 1e9
		rows = append(rows, row)
	}
	return rows, nil
}

// multiPlanTEPS traces each sampled root once and prices each
// architecture's tuned combination on it, returning harmonic-mean
// TEPS per architecture.
func multiPlanTEPS(g *graph.CSR, archs []archsim.Arch, cfg Config) (map[archsim.Kind]float64, error) {
	roots := graph500.SampleRoots(g, cfg.NumRoots, cfg.Seed)
	if len(roots) == 0 {
		return nil, fmt.Errorf("exp: no usable roots")
	}
	perArch := make(map[archsim.Kind][]float64)
	ws := bfs.DefaultPool.Get(g.NumVertices())
	defer bfs.DefaultPool.Put(ws)
	for _, root := range roots {
		tr, err := bfs.TraceFrom(context.Background(), g, root, ws, nil)
		if err != nil {
			return nil, err
		}
		for _, a := range archs {
			plan, _, err := tunedCombination(tr, a, cfg.Link)
			if err != nil {
				return nil, err
			}
			perArch[a.Kind] = append(perArch[a.Kind], core.Simulate(tr, plan, cfg.Link).TEPS())
		}
	}
	out := make(map[archsim.Kind]float64, len(perArch))
	for k, teps := range perArch {
		out[k] = xmath.HarmonicMean(teps)
	}
	return out, nil
}

// ComparisonRow is one line of the §V-D external-baseline comparison.
type ComparisonRow struct {
	Name    string
	Speedup float64 // our best configuration over the baseline
}

// ExternalComparisons drives §V-D: the tuned CPU combination and the
// tuned cross-architecture combination against the Graph 500 reference
// implementation, and the MIC combination against the Gao et al. MIC
// implementation.
func ExternalComparisons(cfg Config) ([]ComparisonRow, error) {
	cfg.setDefaults()
	_, tr, _, err := cfg.workload()
	if err != nil {
		return nil, err
	}
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()

	refCPU := core.Simulate(tr, graph500.ReferenceCPUPlan(), cfg.Link).Total
	refMIC := core.Simulate(tr, graph500.GaoMICReferencePlan(), cfg.Link).Total

	cpuCB, _, err := tunedCombination(tr, cpu, cfg.Link)
	if err != nil {
		return nil, err
	}
	micCB, _, err := tunedCombination(tr, mic, cfg.Link)
	if err != nil {
		return nil, err
	}
	cross, err := tunedCross(tr, cpu, gpu, cfg.Link)
	if err != nil {
		return nil, err
	}

	return []ComparisonRow{
		{Name: "CPUCB vs Graph500 reference", Speedup: refCPU / core.Simulate(tr, cpuCB, cfg.Link).Total},
		{Name: "CPUTD+GPUCB vs Graph500 reference", Speedup: refCPU / core.Simulate(tr, cross, cfg.Link).Total},
		{Name: "MICCB vs Gao et al. MIC", Speedup: refMIC / core.Simulate(tr, micCB, cfg.Link).Total},
	}, nil
}
