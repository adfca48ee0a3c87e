// Package bfs implements the paper's BFS kernels: the serial reference,
// parallel top-down (Algorithm 1), parallel bottom-up (Algorithm 2),
// and the direction-optimizing hybrid that switches between them under
// an (M, N) policy (paper Fig. 4).
//
// Every kernel produces the Graph 500 outputs — a predecessor map and a
// level map — and the package can derive exact per-level work counts
// (|V|cq, |E|cq, bottom-up scan counts) from any completed traversal,
// because BFS level sets do not depend on which direction computed
// them. Those counts are what the architecture simulator prices.
package bfs

import (
	"errors"
	"fmt"

	"crossbfs/internal/graph"
)

// NotVisited marks unvisited entries in parent and level maps.
const NotVisited int32 = -1

// Direction selects the kernel used to expand one BFS level.
type Direction int8

const (
	// TopDown expands the frontier outward: each frontier vertex offers
	// itself as parent to its unvisited neighbors (paper Algorithm 1).
	TopDown Direction = iota
	// BottomUp expands inward: each unvisited vertex searches the
	// frontier for a parent and stops at the first hit (Algorithm 2).
	BottomUp
)

func (d Direction) String() string {
	switch d {
	case TopDown:
		return "TD"
	case BottomUp:
		return "BU"
	default:
		return fmt.Sprintf("Direction(%d)", int8(d))
	}
}

// Result is the output of one BFS traversal.
type Result struct {
	Source int32
	// Parent[v] is the BFS-tree predecessor of v, Source for the
	// source itself, NotVisited for unreachable vertices.
	Parent []int32
	// Level[v] is the distance from Source, NotVisited if unreachable.
	Level []int32
	// Directions[i] records the kernel used for expansion step i+1
	// (paper level numbering: level 1 expands the frontier {source}).
	// Serial and single-direction runs fill it with their direction.
	Directions []Direction
	// StepScans[i] is the number of adjacency entries the bottom-up
	// kernel tested at step i+1, or 0 for top-down steps: one per hub
	// probe, plus the CSR-order scans of the vertices the probes did
	// not discover (see bottomUpRange). ComputeTrace's BottomUpScans
	// counts the paper kernel's CSR-order scans without probes; the two
	// agree on a graph where no vertex has a bigger neighbour.
	StepScans []int64
	// Exchanges records, for partitioned (sharded) traversals, the
	// per-level communication volume: one entry per expansion step, in
	// step order. Non-sharded engines leave it empty. The byte counts
	// are what archsim.Fabric prices when simulating the exchange.
	Exchanges []ExchangeStats
	// VisitedCount is the number of reachable vertices (including the
	// source).
	VisitedCount int64
	// TraversedEdges counts adjacency entries of all reachable
	// vertices; TEPS = TraversedEdges / time per Graph 500.
	TraversedEdges int64
	// Recovery summarizes fault-tolerance work done by a sharded
	// traversal running under a rank-fault schedule: ranks fenced,
	// recoveries replayed, exchange retries, checkpoint volume. Zero
	// for every other engine and for fault-free sharded runs.
	Recovery RecoveryStats
}

// ExchangeStats is one level's cross-rank communication summary from a
// sharded traversal: the compressed frontier deltas all ranks published
// (bottom-up all-gather) and the ghost claim pairs they scattered
// (top-down all-to-all), plus the exactly-once accounting — GhostSent
// counts (vertex, parent) claims received by owners, GhostApplied the
// subset that won their vertex.
type ExchangeStats struct {
	Step int
	Dir  Direction
	// FrontierBytes is the total size of the compressed bitmap deltas
	// exchanged this level (bottom-up levels; 0 for top-down).
	FrontierBytes int64
	// GhostBytes is the total size of the remote claim pairs scattered
	// this level (top-down levels; 0 for bottom-up).
	GhostBytes int64
	// GhostSent counts remote claims delivered to owners; GhostApplied
	// counts the claims that discovered their vertex (the rest lost the
	// visited-bit arbitration — duplicates proposing an already-claimed
	// vertex).
	GhostSent    int64
	GhostApplied int64
}

// TotalBytes returns the level's combined exchanged payload.
func (s ExchangeStats) TotalBytes() int64 { return s.FrontierBytes + s.GhostBytes }

// NumLevels returns the number of expansion steps performed (the
// paper's "level N" count, e.g. 9 in Table IV).
func (r *Result) NumLevels() int { return len(r.Directions) }

// Depth returns the largest assigned level (eccentricity of the source
// within its component), or 0 if only the source is reachable.
func (r *Result) Depth() int32 {
	var d int32
	for _, l := range r.Level {
		if l > d {
			d = l
		}
	}
	return d
}

// checkSource validates a source vertex against the graph.
func checkSource(g *graph.CSR, source int32) error {
	if source < 0 || int(source) >= g.NumVertices() {
		return fmt.Errorf("bfs: source %d out of range [0,%d)", source, g.NumVertices())
	}
	return nil
}

// Validate checks that r is a correct BFS traversal of g from
// r.Source, following the Graph 500 validation rules:
//
//  1. the source is its own parent at level 0;
//  2. every other visited vertex has a visited parent one level
//     closer, connected by a real edge;
//  3. levels of adjacent vertices differ by at most one, and no edge
//     joins a visited and an unvisited vertex (so the visited set is
//     exactly the source's component);
//  4. parent and level maps agree on which vertices are visited.
//
// Together these force Level to be the exact BFS distance map.
func Validate(g *graph.CSR, r *Result) error {
	n := g.NumVertices()
	if len(r.Parent) != n || len(r.Level) != n {
		return fmt.Errorf("bfs: result sized for %d vertices, graph has %d", len(r.Parent), n)
	}
	if err := checkSource(g, r.Source); err != nil {
		return err
	}
	if r.Parent[r.Source] != r.Source {
		return errors.New("bfs: source is not its own parent")
	}
	if r.Level[r.Source] != 0 {
		return fmt.Errorf("bfs: source level = %d, want 0", r.Level[r.Source])
	}
	for v := int32(0); v < int32(n); v++ {
		p, l := r.Parent[v], r.Level[v]
		if (p == NotVisited) != (l == NotVisited) {
			return fmt.Errorf("bfs: vertex %d: parent/level disagree on visitedness", v)
		}
		if p == NotVisited || v == r.Source {
			continue
		}
		if p < 0 || int(p) >= n {
			return fmt.Errorf("bfs: vertex %d has out-of-range parent %d", v, p)
		}
		if r.Level[p] == NotVisited {
			return fmt.Errorf("bfs: vertex %d has unvisited parent %d", v, p)
		}
		if r.Level[p]+1 != l {
			return fmt.Errorf("bfs: vertex %d at level %d, parent %d at level %d", v, l, p, r.Level[p])
		}
	}
	// Edge conditions: levels across any edge differ by <= 1,
	// visitedness is uniform within a component, and every claimed
	// tree edge actually exists. Tree edges are confirmed during the
	// full edge scan rather than by per-edge lookup, so validation
	// stays O(V+E) and independent of adjacency ordering.
	treeEdgeSeen := make([]bool, n)
	for u := int32(0); u < int32(n); u++ {
		lu := r.Level[u]
		for _, v := range g.Neighbors(u) {
			lv := r.Level[v]
			if (lu == NotVisited) != (lv == NotVisited) {
				return fmt.Errorf("bfs: edge (%d,%d) joins visited and unvisited", u, v)
			}
			if lu == NotVisited {
				continue
			}
			if diff := lu - lv; diff > 1 || diff < -1 {
				return fmt.Errorf("bfs: edge (%d,%d) spans levels %d and %d", u, v, lu, lv)
			}
			if r.Parent[v] == u {
				treeEdgeSeen[v] = true
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if v != r.Source && r.Level[v] != NotVisited && !treeEdgeSeen[v] {
			return fmt.Errorf("bfs: tree edge (%d,%d) not in graph", r.Parent[v], v)
		}
	}
	return nil
}
