package bfs

import (
	"context"
	"fmt"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// LevelStats holds the exact work counts of one expansion step,
// independent of the direction that actually executed it.
type LevelStats struct {
	// Step is the paper's 1-based level number.
	Step int
	// FrontierVertices is |V|cq: vertices at distance Step-1.
	FrontierVertices int64
	// FrontierEdges is |E|cq: the adjacency entries a top-down step
	// must traverse (paper §II-A: "top-down will always visit |E|cq").
	FrontierEdges int64
	// Discovered is the number of vertices assigned distance Step.
	Discovered int64
	// UnvisitedVertices is the number of vertices without a level when
	// the step starts — the vertices a bottom-up step iterates.
	UnvisitedVertices int64
	// UnvisitedEdges is the sum of their degrees, the paper's |E|un
	// upper bound on bottom-up work.
	UnvisitedEdges int64
	// BottomUpScans is the exact number of adjacency entries the
	// paper's bottom-up step scans in CSR order, accounting for the
	// early exit at the first parent found. It is what archsim prices.
	// The live kernel probes each vertex's hub before it scans, so its
	// Result.StepScans counts differently wherever a vertex has a hub.
	BottomUpScans int64
	// MaxFrontierDegree is the largest degree among frontier vertices:
	// the critical path of a vertex-parallel top-down step, since one
	// thread walks a hub's whole adjacency list serially.
	MaxFrontierDegree int64
	// MaxScan is the longest single-vertex scan a bottom-up step
	// performs — the analogous critical path for bottom-up.
	MaxScan int64
	// GraphVertices is |V|, carried on every step so cost models can
	// size the traversal's bitmap working set against device caches.
	GraphVertices int64
}

// Trace is the complete per-level work profile of one (graph, source)
// traversal. Because BFS level sets are direction-independent, a
// single trace prices *any* switching policy: replaying a policy over
// the trace is pure arithmetic. This is what makes exhaustive
// switching-point search (1000 candidates, paper Fig. 8) affordable.
type Trace struct {
	Source       int32
	NumVertices  int64
	NumEdges     int64
	Reachable    int64 // vertices in the source's component
	EdgesVisited int64 // TraversedEdges of the underlying result
	Steps        []LevelStats
}

// Depth returns the largest BFS level reached.
func (t *Trace) Depth() int {
	if len(t.Steps) == 0 {
		return 0
	}
	return len(t.Steps) - 1
}

// MeanScan returns the average bottom-up scan length of step s — the
// divergence driver for wide-SIMT devices (long fruitless scans on
// early levels, short early-exit scans once the frontier is large).
func (s LevelStats) MeanScan() float64 {
	if s.UnvisitedVertices == 0 {
		return 0
	}
	return float64(s.BottomUpScans) / float64(s.UnvisitedVertices)
}

// ComputeTrace derives the full per-level work profile from a
// completed traversal. Cost: one pass over all vertices per level
// plus one adjacency pass to find each vertex's earliest potential
// parent — O(D*V + E) for depth D.
func ComputeTrace(g *graph.CSR, r *Result) (*Trace, error) {
	if err := Validate(g, r); err != nil {
		return nil, fmt.Errorf("bfs: trace requires a valid result: %w", err)
	}
	n := g.NumVertices()
	depth := int(r.Depth())
	steps := depth + 1 // the final step expands level `depth` and finds nothing

	countAt := make([]int64, depth+1)      // vertices per level
	degAt := make([]int64, depth+1)        // degree sum per level
	maxDegAt := make([]int64, depth+1)     // max degree per level
	scanFound := make([]int64, depth+2)    // early-exit scans of vertices discovered at each level
	maxScanFound := make([]int64, depth+2) // longest early-exit scan per level
	var unreachableCount, unreachableDeg, unreachableMaxDeg int64

	for v := 0; v < n; v++ {
		l := r.Level[v]
		deg := g.Degree(int32(v))
		if l == NotVisited {
			unreachableCount++
			unreachableDeg += deg
			unreachableMaxDeg = max(unreachableMaxDeg, deg)
			continue
		}
		countAt[l]++
		degAt[l] += deg
		maxDegAt[l] = max(maxDegAt[l], deg)
		if l == 0 {
			continue
		}
		// Early-exit position: a bottom-up step at level l scans v's
		// neighbors in CSR order until the first one in the frontier
		// (level l-1). The BFS edge property guarantees one exists.
		pos := int64(-1)
		for i, u := range g.Neighbors(int32(v)) {
			if r.Level[u] == l-1 {
				pos = int64(i)
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("bfs: vertex %d at level %d has no neighbor at level %d", v, l, l-1)
		}
		scanFound[l] += pos + 1
		maxScanFound[l] = max(maxScanFound[l], pos+1)
	}

	// Suffix aggregates: vertices/edges/max degree at level >= i.
	// Sized depth+3 so that index i+1 is in range (and zero) for the
	// final step i = depth+1.
	suffixCount := make([]int64, depth+3)
	suffixDeg := make([]int64, depth+3)
	suffixMaxDeg := make([]int64, depth+3)
	for l := depth; l >= 0; l-- {
		suffixCount[l] = suffixCount[l+1] + countAt[l]
		suffixDeg[l] = suffixDeg[l+1] + degAt[l]
		suffixMaxDeg[l] = max(suffixMaxDeg[l+1], maxDegAt[l])
	}

	t := &Trace{
		Source:       r.Source,
		NumVertices:  int64(n),
		NumEdges:     g.NumEdges(),
		Reachable:    r.VisitedCount,
		EdgesVisited: r.TraversedEdges,
		Steps:        make([]LevelStats, steps),
	}
	for i := 1; i <= steps; i++ {
		s := &t.Steps[i-1]
		s.Step = i
		s.GraphVertices = int64(n)
		s.FrontierVertices = countAt[i-1]
		s.FrontierEdges = degAt[i-1]
		if i <= depth {
			s.Discovered = countAt[i]
		}
		s.UnvisitedVertices = suffixCount[i] + unreachableCount
		s.UnvisitedEdges = suffixDeg[i] + unreachableDeg
		// Scans: discovered vertices stop at their first parent; still-
		// deeper and unreachable vertices scan their whole list in vain.
		s.BottomUpScans = scanFound[i] + suffixDeg[i+1] + unreachableDeg
		s.MaxFrontierDegree = maxDegAt[i-1]
		s.MaxScan = max(maxScanFound[i], max(suffixMaxDeg[i+1], unreachableMaxDeg))
	}
	return t, nil
}

// TraceFrom runs the serial reference BFS from source and returns its
// trace — the entry point for experiment drivers, the tuner's corpus
// builder and bfsrun. ws may be nil; with a workspace, sweep drivers
// stop reallocating the traversal working set per root, and the
// returned Trace still owns its memory after ws is reused. The
// reference traversal checks ctx at every level boundary, so
// deadline-bound drivers (bfsrun -timeout) abandon a too-large graph
// promptly. rec (nil for none) receives the reference traversal's
// telemetry, so a driver that both prices plans and exports a trace
// file gets the real per-level events and the analytical Trace from
// one BFS.
//
// Note the division of labour: live per-level telemetry flows through
// the Recorder as the traversal runs, while the Trace's exhaustive
// work profile (|E|un, bottom-up scan counts for directions that did
// not execute) is derived afterwards by ComputeTrace.
func TraceFrom(ctx context.Context, g *graph.CSR, source int32, ws *Workspace, rec obs.Recorder) (*Trace, error) {
	r, err := SerialEngine().RunObserved(ctx, g, source, ws, rec)
	if err != nil {
		return nil, err
	}
	return ComputeTrace(g, r)
}
