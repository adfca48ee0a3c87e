// Package part implements 1D vertex partitioning of a CSR graph for
// sharded BFS.
//
// The partitioner tiles the vertex space [0, |V|) into one contiguous,
// word-aligned (multiple-of-64) owned range per rank, balancing by
// adjacency entries rather than vertex count so power-law graphs don't
// starve low-numbered ranks. Each rank gets a zero-copy sub-CSR view
// of its owned rows plus a ghost map: the sorted set of remote
// vertices its edges reference. Word alignment is what lets every rank
// write its owned slice of a shared bitmap with plain (non-atomic)
// stores — no two ranks ever touch the same 64-bit word — and it makes
// the per-level frontier exchange a word-delta per owned range
// (bitmap.AppendDelta / ApplyDelta).
//
// This is the 1D decomposition of Buluç–Beamer's distributed
// direction-optimizing BFS (PAPERS.md): local row ownership, global
// column IDs, per-level frontier all-gather, collective direction
// decision.
package part

import (
	"fmt"
	"sort"

	"crossbfs/internal/graph"
)

// align is the ownership-boundary alignment in vertices. It matches
// the bitmap word size so per-rank bit ranges never share a word.
const align = 64

// Layout records where each rank's owned vertex range starts. Rank r
// owns [Starts[r], Starts[r+1]); Starts has Ranks()+1 entries, the
// first 0 and the last |V|. All interior boundaries are multiples of
// 64, except those clamped to an unaligned |V|, which start empty tail
// ranks.
type Layout struct {
	Starts []int32
}

// Ranks returns the number of ranks in the layout.
func (l *Layout) Ranks() int { return len(l.Starts) - 1 }

// NumVertices returns the size of the partitioned vertex space.
func (l *Layout) NumVertices() int { return int(l.Starts[len(l.Starts)-1]) }

// Range returns rank r's owned vertex range [lo, hi).
func (l *Layout) Range(r int) (lo, hi int32) {
	return l.Starts[r], l.Starts[r+1]
}

// WordRange returns rank r's owned range in 64-bit bitmap words
// [loWord, hiWord). Because interior boundaries are 64-aligned, word
// ranges of distinct ranks are disjoint. The one unaligned start is an
// empty tail rank clamped to |V|; it gets an empty word range, since
// rounding its end up would hand it the previous rank's last word.
func (l *Layout) WordRange(r int) (loWord, hiWord int) {
	lo, hi := l.Range(r)
	if lo == hi {
		return int(lo) / align, int(lo) / align
	}
	return int(lo) / align, (int(hi) + align - 1) / align
}

// Owner returns the rank owning vertex v, by binary search over the
// boundary array.
func (l *Layout) Owner(v int32) int {
	// Find the first boundary strictly greater than v; the rank before
	// it owns v.
	lo, hi := 1, len(l.Starts)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if l.Starts[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// Shard is one rank's share of the graph.
//
// Sub is a zero-copy adjacency view of the owned rows: Sub's row v
// holds the neighbors of global vertex Lo+v, and its column IDs stay
// GLOBAL — a neighbor u belongs to this shard iff Lo <= u < Hi. Sub is
// not a standalone graph (its column space exceeds its row space), so
// it must not be passed to code expecting a self-contained CSR; the
// BFS kernels index it by local row and route columns through
// Layout.Owner.
type Shard struct {
	Rank   int
	Lo, Hi int32 // owned global vertex range [Lo, Hi)
	Sub    *graph.CSR

	// Ghosts lists, sorted ascending, every remote vertex referenced
	// by this shard's edges — the vertices whose frontier membership
	// this rank needs each bottom-up level, and the destinations of
	// its top-down claim messages.
	Ghosts []int32
}

// NumOwned returns the number of vertices this shard owns.
func (s *Shard) NumOwned() int { return int(s.Hi - s.Lo) }

// Owns reports whether global vertex v is owned by this shard.
func (s *Shard) Owns(v int32) bool { return v >= s.Lo && v < s.Hi }

// HasGhost reports whether remote vertex v is referenced by this
// shard's edges, by binary search over the sorted ghost set.
func (s *Shard) HasGhost(v int32) bool {
	i := sort.Search(len(s.Ghosts), func(i int) bool { return s.Ghosts[i] >= v })
	return i < len(s.Ghosts) && s.Ghosts[i] == v
}

// Partitioned is a graph cut into per-rank shards under one layout.
type Partitioned struct {
	Graph  *graph.CSR
	Layout Layout
	Shards []*Shard
}

// Partition tiles g's vertices across ranks contiguous, 64-aligned,
// edge-balanced owned ranges and builds each rank's shard. ranks must
// be >= 1; ranks exceeding |V|/64 produce trailing empty shards, which
// the sharded engine tolerates.
func Partition(g *graph.CSR, ranks int) (*Partitioned, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("part: ranks must be >= 1, got %d", ranks)
	}
	n := g.NumVertices()
	starts := make([]int32, ranks+1)
	// Greedy edge-balanced sweep: advance each boundary until the
	// cumulative adjacency share reaches r/ranks of the total, then
	// round up to the next 64-vertex alignment point.
	total := g.NumEdges()
	v := 0
	for r := 1; r < ranks; r++ {
		target := total * int64(r) / int64(ranks)
		for v < n && g.Offsets[v] < target {
			v++
		}
		v = (v + align - 1) / align * align
		if v > n {
			v = n
		}
		if int(starts[r-1]) > v {
			v = int(starts[r-1]) // keep boundaries monotone
		}
		starts[r] = int32(v)
	}
	starts[ranks] = int32(n)
	// A tiny graph can leave a later boundary below an earlier one
	// only via the monotone clamp above; the final entry may still
	// undershoot n for empty tails, which is fine (empty shards).
	p := &Partitioned{Graph: g, Layout: Layout{Starts: starts}}
	p.Shards = make([]*Shard, ranks)
	for r := 0; r < ranks; r++ {
		p.Shards[r] = buildShard(g, &p.Layout, r)
	}
	return p, nil
}

// buildShard cuts rank r's rows out of g. The offset slice is rebased
// (one small allocation per shard); the adjacency storage is aliased,
// not copied.
func buildShard(g *graph.CSR, l *Layout, r int) *Shard {
	lo, hi := l.Range(r)
	nOwned := int(hi - lo)
	offs := make([]int64, nOwned+1)
	base := g.Offsets[lo]
	for i := 0; i <= nOwned; i++ {
		offs[i] = g.Offsets[int(lo)+i] - base
	}
	sub := &graph.CSR{
		Offsets: offs,
		Adj:     g.Adj[base:g.Offsets[hi]],
	}
	// Collect the distinct remote endpoints.
	seen := make(map[int32]struct{})
	for _, u := range sub.Adj {
		if u < lo || u >= hi {
			seen[u] = struct{}{}
		}
	}
	ghosts := make([]int32, 0, len(seen))
	for u := range seen {
		ghosts = append(ghosts, u)
	}
	sort.Slice(ghosts, func(i, j int) bool { return ghosts[i] < ghosts[j] })
	return &Shard{Rank: r, Lo: lo, Hi: hi, Sub: sub, Ghosts: ghosts}
}

// Validate checks the partition's structural invariants: the layout
// tiles [0, |V|) with 64-aligned monotone boundaries, every shard's
// sub-CSR reproduces the owned rows of the source graph exactly, and
// the ghost set is sorted, distinct, and exactly the set of remote
// endpoints. Quadratic-ish in edges; test and tooling use only.
func (p *Partitioned) Validate() error {
	l := &p.Layout
	n := p.Graph.NumVertices()
	if len(l.Starts) < 2 || l.Starts[0] != 0 || int(l.Starts[len(l.Starts)-1]) != n {
		return fmt.Errorf("part: layout does not tile [0,%d): %v", n, l.Starts)
	}
	for r := 1; r < len(l.Starts)-1; r++ {
		if l.Starts[r] < l.Starts[r-1] {
			return fmt.Errorf("part: boundary %d decreases: %v", r, l.Starts)
		}
		if l.Starts[r]%align != 0 {
			return fmt.Errorf("part: boundary %d = %d not %d-aligned", r, l.Starts[r], align)
		}
	}
	if len(p.Shards) != l.Ranks() {
		return fmt.Errorf("part: %d shards for %d ranks", len(p.Shards), l.Ranks())
	}
	for r, s := range p.Shards {
		lo, hi := l.Range(r)
		if s.Rank != r || s.Lo != lo || s.Hi != hi {
			return fmt.Errorf("part: shard %d range mismatch: [%d,%d) vs layout [%d,%d)", r, s.Lo, s.Hi, lo, hi)
		}
		if s.Sub.NumVertices() != s.NumOwned() {
			return fmt.Errorf("part: shard %d has %d rows, owns %d", r, s.Sub.NumVertices(), s.NumOwned())
		}
		ghostWant := make(map[int32]struct{})
		for v := lo; v < hi; v++ {
			want := p.Graph.Neighbors(v)
			got := s.Sub.Neighbors(v - lo)
			if len(want) != len(got) {
				return fmt.Errorf("part: shard %d row %d degree %d, want %d", r, v, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					return fmt.Errorf("part: shard %d row %d neighbor %d is %d, want %d", r, v, i, got[i], want[i])
				}
				if !s.Owns(want[i]) {
					ghostWant[want[i]] = struct{}{}
				}
			}
			if o := l.Owner(v); o != r {
				return fmt.Errorf("part: Owner(%d) = %d, want %d", v, o, r)
			}
		}
		if len(s.Ghosts) != len(ghostWant) {
			return fmt.Errorf("part: shard %d has %d ghosts, want %d", r, len(s.Ghosts), len(ghostWant))
		}
		for i, u := range s.Ghosts {
			if i > 0 && s.Ghosts[i-1] >= u {
				return fmt.Errorf("part: shard %d ghosts not sorted-distinct at %d", r, i)
			}
			if _, ok := ghostWant[u]; !ok {
				return fmt.Errorf("part: shard %d ghost %d is not a remote endpoint", r, u)
			}
		}
	}
	return nil
}

// Shrink reassigns every segment currently owned by a dead rank onto
// the surviving ranks. owner[seg] is the rank owning segment seg (the
// identity mapping before any failure), dead[r] marks failed ranks.
// Orphaned segments are adopted deterministically: segments are walked
// in ascending order and each goes to the live rank owning the fewest
// segments at that point (ties break toward the lowest rank), so every
// survivor set yields the same balanced handoff on every run. The
// input slice is not modified; Shrink returns the new assignment, or
// an error when no rank survives.
func Shrink(owner []int, dead []bool) ([]int, error) {
	if len(owner) != len(dead) {
		return nil, fmt.Errorf("part: shrink: %d segments vs %d ranks", len(owner), len(dead))
	}
	load := make([]int, len(dead))
	anyLive := false
	for _, d := range dead {
		if !d {
			anyLive = true
			break
		}
	}
	if !anyLive {
		return nil, fmt.Errorf("part: shrink: no surviving ranks")
	}
	next := make([]int, len(owner))
	copy(next, owner)
	for seg, r := range next {
		if r < 0 || r >= len(dead) {
			return nil, fmt.Errorf("part: shrink: segment %d owned by out-of-range rank %d", seg, r)
		}
		if !dead[r] {
			load[r]++
			continue
		}
		next[seg] = -1 // orphaned; adopted below once live loads are known
	}
	for seg, r := range next {
		if r >= 0 {
			continue
		}
		best := -1
		for cand, d := range dead {
			if d {
				continue
			}
			if best < 0 || load[cand] < load[best] {
				best = cand
			}
		}
		next[seg] = best
		load[best]++
	}
	return next, nil
}
