// Package graph provides the Compressed Sparse Row (CSR) graph
// substrate used by every BFS kernel in this repository.
//
// The paper stores graphs in CSR (§V-A: "We use the CSR format to
// store the graph"). A CSR graph keeps all adjacency lists in one
// contiguous array (Adj) indexed by a per-vertex offset array (Offsets),
// which is what makes both the top-down edge scan and the bottom-up
// early-exit scan cache-friendly and trivially shardable.
package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Edge is a directed edge in an edge list. BFS treats graphs as
// undirected; Build symmetrizes unless told otherwise.
type Edge struct {
	From, To int32
}

// CSR is an immutable graph in Compressed Sparse Row form.
// The neighbors of vertex v are Adj[Offsets[v]:Offsets[v+1]], sorted
// ascending. Offsets has NumVertices+1 entries; Adj has NumEdges
// entries (each undirected edge appears twice after symmetrization).
//
// A CSR is shared by pointer and never copied by value: it caches
// derived data under a sync.Once (see NonIsolated, NumIsolated and
// Hubs). Nor is it modified after construction, beyond the reorderings
// in reorder.go, which only permute entries within each adjacency list
// and so keep every degree and every neighbour set.
type CSR struct {
	Offsets []int64
	Adj     []int32

	derivedOnce sync.Once
	nonIsolated []uint64
	isolated    int
	hub         []int32
	hasHub      []uint64
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the number of directed adjacency entries (twice the
// undirected edge count for a symmetrized graph).
func (g *CSR) NumEdges() int64 { return int64(len(g.Adj)) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int32) int64 {
	return g.Offsets[v+1] - g.Offsets[v]
}

// Neighbors returns the adjacency slice of v. The slice aliases the
// graph's storage and must not be modified.
func (g *CSR) Neighbors(v int32) []int32 {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// NonIsolated returns a bitmap of the vertices that have an edge: bit
// v%64 of word v/64 is set iff Degree(v) > 0, and no bit at or beyond
// |V| is set. It is built on first use and cached on the graph, so
// every traversal of g shares one copy; callers must not modify it.
func (g *CSR) NonIsolated() []uint64 {
	g.derivedOnce.Do(g.buildDerived)
	return g.nonIsolated
}

// NumIsolated returns the number of vertices without an edge: |V|
// minus the bits set in NonIsolated, counted when the mask is built.
func (g *CSR) NumIsolated() int {
	g.derivedOnce.Do(g.buildDerived)
	return g.isolated
}

// Hubs returns the hub index. hub[v] is v's neighbour of largest
// degree, ties to the smallest id, kept only if that degree is
// strictly greater than Degree(v); otherwise hub[v] is -1. Bit v of
// hasHub is set iff hub[v] >= 0, and no bit at or beyond |V| is set.
// The index depends on each vertex's neighbour set, not on the order
// of its adjacency list. It is built with NonIsolated's mask and
// cached alongside it; callers must not modify either slice.
func (g *CSR) Hubs() (hub []int32, hasHub []uint64) {
	g.derivedOnce.Do(g.buildDerived)
	return g.hub, g.hasHub
}

// buildDerived builds the non-isolated mask, its isolated count and
// the hub index in one pass over the vertices, each mask word in a
// register stored once.
func (g *CSR) buildDerived() {
	n := g.NumVertices()
	words := (n + 63) / 64
	mask, hasHub := make([]uint64, words), make([]uint64, words)
	hub := make([]int32, n)
	isolated := n
	for wi := range mask {
		base := wi * 64
		var live, hubbed uint64
		for v := base; v < min(base+64, n); v++ {
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			if hi != lo {
				live |= 1 << uint(v-base)
			}
			best, bestDeg := int32(-1), hi-lo
			for _, u := range g.Adj[lo:hi] {
				d := g.Degree(u)
				if d > bestDeg || d == bestDeg && best >= 0 && u < best {
					best, bestDeg = u, d
				}
			}
			hub[v] = best
			if best >= 0 {
				hubbed |= 1 << uint(v-base)
			}
		}
		mask[wi], hasHub[wi] = live, hubbed
		isolated -= bits.OnesCount64(live)
	}
	g.nonIsolated, g.isolated, g.hub, g.hasHub = mask, isolated, hub, hasHub
}

// HasEdge reports whether the directed edge (u, v) exists, by binary
// search over u's sorted adjacency list.
func (g *CSR) HasEdge(u, v int32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *CSR) MaxDegree() int64 {
	var m int64
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > m {
			m = d
		}
	}
	return m
}

// BuildOptions control edge-list to CSR conversion.
type BuildOptions struct {
	// Symmetrize inserts the reverse of every edge so the CSR can be
	// traversed as an undirected graph. This matches Graph 500 kernel 1.
	Symmetrize bool
	// KeepSelfLoops retains (v, v) edges. Graph 500 construction drops
	// them, so the default (false) drops them too.
	KeepSelfLoops bool
	// KeepDuplicates retains parallel edges. Graph 500 construction
	// deduplicates, so the default (false) deduplicates.
	KeepDuplicates bool
}

// Build converts an edge list into a CSR graph with numVertices
// vertices. Vertex IDs must lie in [0, numVertices).
func Build(numVertices int, edges []Edge, opts BuildOptions) (*CSR, error) {
	if numVertices < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	n := int32(numVertices)
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
	}

	// Count directed entries per vertex.
	offsets := make([]int64, numVertices+1)
	count := func(e Edge) {
		if !opts.KeepSelfLoops && e.From == e.To {
			return
		}
		offsets[e.From+1]++
		if opts.Symmetrize && e.From != e.To {
			offsets[e.To+1]++
		}
	}
	for _, e := range edges {
		count(e)
	}
	for v := 0; v < numVertices; v++ {
		offsets[v+1] += offsets[v]
	}

	adj := make([]int32, offsets[numVertices])
	cursor := make([]int64, numVertices)
	place := func(from, to int32) {
		pos := offsets[from] + cursor[from]
		adj[pos] = to
		cursor[from]++
	}
	for _, e := range edges {
		if !opts.KeepSelfLoops && e.From == e.To {
			continue
		}
		place(e.From, e.To)
		if opts.Symmetrize && e.From != e.To {
			place(e.To, e.From)
		}
	}

	g := &CSR{Offsets: offsets, Adj: adj}
	g.sortAdjacency()
	if !opts.KeepDuplicates {
		g.dedup()
	}
	return g, nil
}

// sortAdjacency sorts each adjacency list ascending.
func (g *CSR) sortAdjacency() {
	for v := 0; v < g.NumVertices(); v++ {
		slices.Sort(g.Adj[g.Offsets[v]:g.Offsets[v+1]])
	}
}

// dedup removes duplicate entries from each (sorted) adjacency list,
// compacting Adj and rewriting Offsets.
func (g *CSR) dedup() {
	n := g.NumVertices()
	newOffsets := make([]int64, n+1)
	w := int64(0)
	for v := 0; v < n; v++ {
		newOffsets[v] = w
		start, end := g.Offsets[v], g.Offsets[v+1]
		for i := start; i < end; i++ {
			if i > start && g.Adj[i] == g.Adj[i-1] {
				continue
			}
			g.Adj[w] = g.Adj[i]
			w++
		}
	}
	newOffsets[n] = w
	g.Offsets = newOffsets
	g.Adj = g.Adj[:w]
}

// Stats summarizes a graph for feature vectors and reports.
type Stats struct {
	NumVertices int
	NumEdges    int64 // directed adjacency entries
	MinDegree   int64
	MaxDegree   int64
	AvgDegree   float64
	Isolated    int // vertices with degree 0
}

// ComputeStats scans the graph once and returns its Stats.
func (g *CSR) ComputeStats() Stats {
	s := Stats{
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		MinDegree:   int64(1) << 62,
	}
	if s.NumVertices == 0 {
		s.MinDegree = 0
		return s
	}
	for v := 0; v < s.NumVertices; v++ {
		d := g.Degree(int32(v))
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	s.AvgDegree = float64(s.NumEdges) / float64(s.NumVertices)
	return s
}

// Validate checks structural invariants: monotone offsets, in-range
// sorted adjacency. It returns nil for a well-formed CSR.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return errors.New("graph: missing offsets")
	}
	if g.Offsets[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	if g.Offsets[n] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: final offset %d != len(adj) %d", g.Offsets[n], len(g.Adj))
	}
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
		if g.Offsets[v+1] > int64(len(g.Adj)) {
			return fmt.Errorf("graph: offset of vertex %d exceeds adjacency length", v+1)
		}
		adj := g.Neighbors(int32(v))
		for i, u := range adj {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && adj[i-1] > u {
				return fmt.Errorf("graph: adjacency of vertex %d not sorted", v)
			}
		}
	}
	return nil
}
