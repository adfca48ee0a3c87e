package bfs

import (
	"context"
	"fmt"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// Engine is the execution interface over the package's BFS kernels:
// the serial reference, the parallel top-down and bottom-up baselines,
// the (M, N) hybrid and the sharded engine. Every layer that runs
// traversals (serve's query planner, the Graph 500 runner, the batch
// driver RunMany, the CLI tools) holds one without knowing which
// kernel is behind it, and it is the seam where pooled workspaces plug
// in.
//
// RunObserved is the one execution path. Run is its context-free,
// unobserved form, kept because the repository's benchmark module
// (perfbench) calls it; every implementation writes it as a one-line
// forward to RunObserved.
type Engine interface {
	// Name identifies the engine in reports, e.g. "hybrid(64,64)".
	Name() string
	// Run is RunObserved(context.Background(), g, source, ws, nil).
	Run(g *graph.CSR, source int32, ws *Workspace) (*Result, error)
	// RunObserved executes one traversal from source. ws may be nil,
	// in which case the engine allocates one-shot buffers; with a
	// Workspace the traversal allocates nothing in steady state, and
	// the returned Result aliases the workspace's buffers — it is
	// valid only until the workspace's next traversal, so Clone it (or
	// finish consuming it) before reusing the workspace.
	//
	// The traversal observes ctx at level boundaries (and grain
	// boundaries in parallel kernels) and returns ctx.Err() promptly
	// on cancellation or deadline expiry. Panics inside the traversal
	// are contained and returned as a *PanicError. On error the
	// workspace is quiescent and safe to reuse or return to a pool.
	//
	// rec receives the traversal's telemetry (see internal/obs): a
	// start event, one event per expansion step carrying the per-level
	// work counts, a switch event at each direction change, and an end
	// event — all sharing one process-unique TraversalID. rec may be
	// nil or obs.Nop: then there are no clock reads and no event
	// construction, and the steady-state 0 allocs/op gate holds.
	RunObserved(ctx context.Context, g *graph.CSR, source int32, ws *Workspace, rec obs.Recorder) (*Result, error)
}

// policyEngine is the direction-policy-driven level-synchronized
// runner behind the top-down, bottom-up and hybrid engines. Its policy
// is shared across runs, so it must be stateless.
type policyEngine struct {
	name    string
	policy  Policy
	workers int
}

// Name implements Engine.
func (e *policyEngine) Name() string { return e.name }

// Run implements Engine.
func (e *policyEngine) Run(g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunObserved(context.Background(), g, source, ws, nil)
}

// RunObserved implements Engine.
func (e *policyEngine) RunObserved(ctx context.Context, g *graph.CSR, source int32, ws *Workspace, rec obs.Recorder) (*Result, error) {
	opts := Options{Policy: e.policy, Workers: e.workers, Recorder: rec, Label: e.name}
	return Run(ctx, g, source, opts, ws)
}

// TopDownEngine returns the pure top-down baseline (paper Algorithm 1)
// as an Engine. workers <= 0 uses GOMAXPROCS.
func TopDownEngine(workers int) Engine {
	return &policyEngine{name: "topdown", policy: AlwaysTopDown, workers: workers}
}

// BottomUpEngine returns the pure bottom-up baseline (paper
// Algorithm 2) as an Engine.
func BottomUpEngine(workers int) Engine {
	return &policyEngine{name: "bottomup", policy: AlwaysBottomUp, workers: workers}
}

// HybridEngine returns the direction-optimizing combination with the
// paper's (M, N) switching rule as an Engine.
func HybridEngine(m, n float64, workers int) Engine {
	return &policyEngine{
		name:    fmt.Sprintf("hybrid(%g,%g)", m, n),
		policy:  MN{M: m, N: n},
		workers: workers,
	}
}

// DefaultEngine returns the package's flagship configuration: the
// direction-optimizing hybrid at the repo-wide default thresholds with
// automatic parallelism.
func DefaultEngine() Engine { return HybridEngine(DefaultM, DefaultN, 0) }
