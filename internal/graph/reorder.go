package graph

import "sort"

// Adjacency reordering — the "vertices rearrangement" optimization
// family of Chhugani et al. (IPDPS'12), which the paper cites in its
// related work (§VI). Bottom-up BFS scans each unvisited vertex's
// adjacency list in storage order and stops at the first frontier
// member; since high-degree vertices are discovered early in
// direction-optimized traversals of scale-free graphs, placing them
// first in every adjacency list shortens the expected scan. The
// reordering preserves the vertex numbering and the edge set — only
// the within-list order changes — so traversal results are identical;
// only the bottom-up scan counts (and thus simulated times) improve.

// SortNeighborsByDegree reorders every adjacency list so higher-degree
// neighbors come first (ties by vertex id for determinism). Returns
// the receiver for chaining.
//
// Note HasEdge relies on sorted adjacency; after this reordering use
// HasEdgeUnsorted or keep a pristine copy for membership queries.
func (g *CSR) SortNeighborsByDegree() *CSR {
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
		sort.Slice(adj, func(i, j int) bool {
			di, dj := g.Degree(adj[i]), g.Degree(adj[j])
			if di != dj {
				return di > dj
			}
			return adj[i] < adj[j]
		})
	}
	return g
}

// SortNeighborsByID restores ascending adjacency order (the Build
// default), re-enabling binary-search HasEdge.
func (g *CSR) SortNeighborsByID() *CSR {
	g.sortLists(false)
	return g
}

// HasEdgeUnsorted reports whether (u, v) exists by linear scan,
// correct regardless of adjacency ordering.
func (g *CSR) HasEdgeUnsorted(u, v int32) bool {
	for _, w := range g.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph, useful before destructive
// reorderings.
func (g *CSR) Clone() *CSR {
	return &CSR{
		Offsets: append([]int64(nil), g.Offsets...),
		Adj:     append([]int32(nil), g.Adj...),
	}
}
