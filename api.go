package crossbfs

import (
	"context"
	"fmt"
	"time"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/graph"
	"crossbfs/internal/graph500"
	"crossbfs/internal/rmat"
	"crossbfs/internal/tuner"
)

// Re-exported types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Graph is an immutable CSR graph.
	Graph = graph.CSR
	// Edge is a directed edge for BuildGraph.
	Edge = graph.Edge
	// RMATParams parameterize the Graph 500 Kronecker generator.
	RMATParams = rmat.Params
	// Result is a BFS traversal's predecessor and level maps.
	Result = bfs.Result
	// Direction selects the top-down or bottom-up kernel.
	Direction = bfs.Direction
	// Arch is a modeled execution platform.
	Arch = archsim.Arch
	// Plan schedules each BFS level onto a platform and direction.
	Plan = core.Plan
	// Timing is a plan's simulated cost breakdown.
	Timing = core.Timing
	// Model is a trained switching-point predictor.
	Model = tuner.Model
	// SwitchPoint is an (M, N) threshold pair for the Fig. 4 rule.
	SwitchPoint = tuner.SwitchPoint
	// TEPSReport is a Graph 500-style benchmark summary.
	TEPSReport = graph500.RunResult
)

// Direction values.
const (
	TopDown  = bfs.TopDown
	BottomUp = bfs.BottomUp
)

// ---- Graphs ----

// GenerateRMAT builds the paper's R-MAT graph: 2^scale vertices,
// edgeFactor*2^scale generated edges, Graph 500 probabilities
// (A=0.57, B=0.19, C=0.19, D=0.05), symmetrized and deduplicated.
func GenerateRMAT(scale, edgeFactor int, seed uint64) (*Graph, error) {
	p := rmat.DefaultParams(scale, edgeFactor)
	p.Seed = seed
	return rmat.Generate(p)
}

// GenerateRMATWith builds an R-MAT graph with full parameter control.
func GenerateRMATWith(p RMATParams) (*Graph, error) { return rmat.Generate(p) }

// BuildGraph converts an undirected edge list into a CSR graph
// (symmetrized, self-loops dropped, parallel edges deduplicated).
func BuildGraph(numVertices int, edges []Edge) (*Graph, error) {
	return graph.Build(numVertices, edges, graph.BuildOptions{Symmetrize: true})
}

// ---- BFS execution (real kernels on the host) ----

// BFS runs the direction-optimizing hybrid with the default switching
// point (M=N=64) and full parallelism, returning the predecessor and
// level maps. It does not validate them; ValidateBFS does.
func BFS(g *Graph, source int32) (*Result, error) {
	opts := bfs.Options{Policy: bfs.MN{M: bfs.DefaultM, N: bfs.DefaultN}}
	return bfs.Run(context.Background(), g, source, opts, nil)
}

// BFSTopDown runs the pure top-down baseline (paper Algorithm 1).
func BFSTopDown(g *Graph, source int32) (*Result, error) {
	return bfs.Run(context.Background(), g, source, bfs.Options{Policy: bfs.AlwaysTopDown}, nil)
}

// BFSBottomUp runs the pure bottom-up baseline (paper Algorithm 2).
func BFSBottomUp(g *Graph, source int32) (*Result, error) {
	return bfs.Run(context.Background(), g, source, bfs.Options{Policy: bfs.AlwaysBottomUp}, nil)
}

// ValidateBFS checks a result against the Graph 500 validation rules.
func ValidateBFS(g *Graph, r *Result) error { return bfs.Validate(g, r) }

// MeasureAll times all three kernels plus the Beamer heuristic on one
// real traversal each and returns the wall times keyed by engine name.
func MeasureAll(g *Graph, source int32) (map[string]time.Duration, error) {
	engines := []struct {
		name   string
		policy bfs.Policy
	}{
		{"top-down", bfs.AlwaysTopDown},
		{"bottom-up", bfs.AlwaysBottomUp},
		{"hybrid-mn", bfs.MN{M: 64, N: 64}},
		{"beamer-ab", bfs.NewAlphaBeta(0, 0)},
	}
	out := make(map[string]time.Duration, len(engines))
	for _, e := range engines {
		_, timing, err := core.Measure(g, source, e.policy, e.name, 0, nil)
		if err != nil {
			return nil, err
		}
		out[e.name] = timing.Total
	}
	return out, nil
}

// ---- Architectures and plans ----

// CPU returns the paper's 8-core Sandy Bridge model (Table II).
func CPU() Arch { return archsim.SandyBridge() }

// GPU returns the paper's NVIDIA Kepler K20x model (Table II).
func GPU() Arch { return archsim.KeplerK20x() }

// MIC returns the paper's 60-core Knights Corner model (Table II).
func MIC() Arch { return archsim.KnightsCorner() }

// NewBaseline returns the pure single-direction plan on arch
// (e.g. GPUTD).
func NewBaseline(arch Arch, dir Direction) Plan {
	return core.FixedDirection(arch, dir)
}

// NewCombination returns the single-architecture direction-optimizing
// combination (paper: CPUCB / GPUCB / MICCB).
func NewCombination(arch Arch, m, n float64) Plan {
	return core.Combination(arch, m, n)
}

// NewCrossPlan returns the paper's Algorithm 3: top-down on host while
// the frontier is small by (m1, n1), then a (m2, n2)-switched
// combination on the coprocessor, never returning to the host.
func NewCrossPlan(host, coprocessor Arch, m1, n1, m2, n2 float64) Plan {
	return core.CrossPlan{
		Host: host, Coprocessor: coprocessor,
		M1: m1, N1: n1, M2: m2, N2: n2,
	}
}

// ---- Simulation ----

// Simulate traces one BFS from source (real traversal on the host)
// and prices the plan's every level on the architecture models, using
// the PCIe link for transfers.
func Simulate(g *Graph, source int32, plan Plan) (*Timing, error) {
	tr, err := bfs.TraceFrom(context.Background(), g, source, nil, nil)
	if err != nil {
		return nil, err
	}
	return core.Simulate(tr, plan, archsim.PCIe()), nil
}

// BenchmarkTEPS runs a Graph 500-style benchmark: numRoots sampled
// search keys, a validated BFS per key priced on the plan, harmonic-
// mean TEPS aggregate.
func BenchmarkTEPS(g *Graph, plan Plan, numRoots int) (*TEPSReport, error) {
	return graph500.Run(g, plan, archsim.PCIe(), numRoots, 1)
}

// ---- Adaptive tuning (the paper's contribution) ----

// TrainDefaultModel builds the default training corpus (graphs crossed
// with architecture pairs, labelled by exhaustive search — paper
// Fig. 6) and trains the switching-point regression model. progress
// may be nil.
func TrainDefaultModel(progress func(done, total int)) (*Model, error) {
	samples, err := tuner.BuildCorpus(tuner.DefaultCorpusSpec(), progress)
	if err != nil {
		return nil, err
	}
	return tuner.Train(samples, tuner.TrainOptions{})
}

// PredictSwitchPoint predicts the best (M, N) for traversing a graph
// with top-down on tdArch and bottom-up on buArch — the paper's
// RegressionModel(GI, ArchTD, ArchBU) call in Algorithm 3. The graph
// is described by its generation parameters plus the built CSR.
func PredictSwitchPoint(m *Model, p RMATParams, g *Graph, tdArch, buArch Arch) SwitchPoint {
	return m.Predict(tuner.Sample{
		Graph: tuner.GraphInfoFor(p, g),
		TD:    tuner.ArchInfoOf(tdArch),
		BU:    tuner.ArchInfoOf(buArch),
	})
}

// NewAdaptiveCrossPlan assembles Algorithm 3 end to end: predict
// (M1, N1) for the host/coprocessor boundary and (M2, N2) for the
// on-coprocessor combination, then return the cross plan.
func NewAdaptiveCrossPlan(m *Model, p RMATParams, g *Graph, host, coprocessor Arch) (Plan, error) {
	if m == nil {
		return nil, fmt.Errorf("crossbfs: nil model") //lint:fault-ok argument validation, not a runtime fault; callers test for nil before dispatch
	}
	boundary := PredictSwitchPoint(m, p, g, host, coprocessor)
	onCop := PredictSwitchPoint(m, p, g, coprocessor, coprocessor)
	return NewCrossPlan(host, coprocessor, boundary.M, boundary.N, onCop.M, onCop.N), nil
}
