// Package part implements 1D vertex partitioning of a CSR graph for
// sharded BFS.
//
// The partitioner tiles the vertex space [0, |V|) into one contiguous,
// word-aligned (multiple-of-64) owned range per rank, balancing by
// adjacency entries rather than vertex count so power-law graphs don't
// starve low-numbered ranks. A partition is only its Layout: the
// boundaries. Ranks read their owned rows from the graph itself, whose
// column IDs are already global. Word alignment is what lets every
// rank write its owned slice of a shared bitmap with plain
// (non-atomic) stores — no two ranks ever touch the same 64-bit word —
// and it makes the per-level frontier exchange a word-delta per owned
// range (bitmap.AppendDelta / ApplyDelta). Shrink moves a failed
// rank's ranges onto the survivors.
//
// This is the 1D decomposition of Buluç–Beamer's distributed
// direction-optimizing BFS (PAPERS.md): local row ownership, global
// column IDs, per-level frontier all-gather, collective direction
// decision.
package part

import (
	"fmt"

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

// Partition tiles g's vertices across ranks contiguous, 64-aligned,
// edge-balanced owned ranges. ranks must be >= 1; ranks exceeding
// |V|/64 produce trailing empty ranges, which the sharded engine
// tolerates.
func Partition(g *graph.CSR, ranks int) (Layout, error) {
	if ranks < 1 {
		return Layout{}, fmt.Errorf("part: ranks must be >= 1, got %d", ranks)
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
	return Layout{Starts: starts}, nil
}

// Validate checks the layout's structural invariants for an n-vertex
// graph: the boundaries tile [0, n), they never decrease, every
// interior one is 64-aligned, and Owner maps each vertex to the rank
// whose range holds it. Linear in n; test and tooling use only.
func (l *Layout) Validate(n int) error {
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
	for r := 0; r < l.Ranks(); r++ {
		lo, hi := l.Range(r)
		for v := lo; v < hi; v++ {
			if o := l.Owner(v); o != r {
				return fmt.Errorf("part: Owner(%d) = %d, want %d", v, o, r)
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
