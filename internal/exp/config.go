// Package exp contains one driver per table and figure of the paper's
// evaluation. Each driver returns typed rows; cmd/experiments renders
// them as text and the root benchmark suite wraps them in testing.B
// benches, so paper artifacts regenerate identically from either
// entry point.
//
// Default workloads are scaled down from the paper's SCALE 21-23 to
// SCALE 14-18 (one 15 GB machine) — see DESIGN.md's substitution
// table. The drivers keep the paper's *structure*: same sweeps, same
// comparisons, same metrics.
package exp

import (
	"context"
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
	"crossbfs/internal/tuner"
)

// Config carries the shared experiment parameters.
type Config struct {
	// Scale and EdgeFactor define the default single-graph workload
	// (Table IV's "8M vertices, 128M edges" scaled down).
	Scale      int
	EdgeFactor int
	Seed       uint64
	// NumRoots is the Graph 500 search-key count for TEPS aggregates.
	NumRoots int
	// Link prices cross-architecture transfers.
	Link archsim.Link
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Scale:      17,
		EdgeFactor: 16,
		Seed:       1,
		NumRoots:   16,
		Link:       archsim.PCIe(),
	}
}

func (c *Config) setDefaults() {
	d := DefaultConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.EdgeFactor == 0 {
		c.EdgeFactor = d.EdgeFactor
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.NumRoots == 0 {
		c.NumRoots = d.NumRoots
	}
	if c.Link == (archsim.Link{}) {
		c.Link = d.Link
	}
}

// workload generates the config's default graph and returns it with a
// trace from the first sampled root.
func (c Config) workload() (*graph.CSR, *bfs.Trace, rmat.Params, error) {
	p := rmat.DefaultParams(c.Scale, c.EdgeFactor)
	p.Seed = c.Seed
	g, err := rmat.Generate(p)
	if err != nil {
		return nil, nil, p, err
	}
	tr, err := traceFromSampledRoot(g, c.Seed)
	if err != nil {
		return nil, nil, p, err
	}
	return g, tr, p, nil
}

func traceFromSampledRoot(g *graph.CSR, seed uint64) (*bfs.Trace, error) {
	src, ok := firstUsableSource(g, seed)
	if !ok {
		return nil, fmt.Errorf("exp: graph has no non-isolated vertex")
	}
	// The sweep drivers call this per generated graph; drawing the
	// traversal buffers from the shared pool keeps the thousand-point
	// experiment loops from churning the allocator.
	ws := bfs.DefaultPool.Get(g.NumVertices())
	defer bfs.DefaultPool.Put(ws)
	return bfs.TraceFrom(context.Background(), g, src, ws, nil)
}

func firstUsableSource(g *graph.CSR, seed uint64) (int32, bool) {
	// Deterministic but seed-dependent starting offset, then the first
	// non-isolated vertex from there.
	n := g.NumVertices()
	if n == 0 {
		return 0, false
	}
	start := int(seed % uint64(n))
	for i := 0; i < n; i++ {
		v := int32((start + i) % n)
		if g.Degree(v) > 0 {
			return v, true
		}
	}
	return 0, false
}

// tuneGrid is the coarse exhaustive grid used to give every
// combination row its own well-tuned (M, N) — the paper's
// hybrid-oracle treatment for the non-regression experiments.
var tuneGrid = tuner.CandidateGrid(16, 10, 300, 300)

// tunedCombination returns arch's combination plan with its
// exhaustively best switching point for this trace.
func tunedCombination(tr *bfs.Trace, arch archsim.Arch, link archsim.Link) (core.Plan, tuner.SwitchPoint, error) {
	best, err := tuner.LabelBest(tr, arch, arch, link, tuneGrid)
	if err != nil {
		return nil, best, err
	}
	return core.Combination(arch, best.M, best.N), best, nil
}

// tunedCross returns the Algorithm 3 plan with both threshold pairs
// tuned by exhaustive search on this trace.
func tunedCross(tr *bfs.Trace, host, cop archsim.Arch, link archsim.Link) (core.CrossPlan, error) {
	boundary, err := tuner.LabelBest(tr, host, cop, link, tuneGrid)
	if err != nil {
		return core.CrossPlan{}, err
	}
	onCop, err := tuner.LabelBest(tr, cop, cop, link, tuneGrid)
	if err != nil {
		return core.CrossPlan{}, err
	}
	return core.CrossPlan{
		Host: host, Coprocessor: cop,
		M1: boundary.M, N1: boundary.N,
		M2: onCop.M, N2: onCop.N,
	}, nil
}
