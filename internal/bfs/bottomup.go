package bfs

import (
	"context"
	"math/bits"
	"sync/atomic"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// buGrain is the vertex block size for bottom-up workers. Bottom-up
// scans the whole vertex range, so blocks can be larger than top-down's.
// It must stay a multiple of 64 so every grain owns whole bitmap words.
const buGrain = 4096

// levelTotals holds one parallel level's sums across workers in one
// object, so a fan-out captures a single allocation for all of them.
type levelTotals struct {
	found, scans, degrees atomic.Int64
}

// bottomUpLevel expands one level in the bottom-up direction: every
// unvisited vertex scans its neighbors for a member of the current
// frontier and adopts the first hit as parent (paper Algorithm 2,
// lines 7-12, including the early-exit "break"). front is the current
// frontier as a bitmap; next receives the new frontier (every word is
// overwritten, so it need not arrive cleared). Returns the number of
// vertices discovered, the number of edges scanned — the quantity the
// paper bounds by |E|un and the simulator prices — and the degree sum
// of the discovered vertices, which is the next level's |E|cq.
//
// Cancellation is observed at grain boundaries (see parallelGrains);
// on error the counts are meaningless and the caller must abandon the
// traversal.
func bottomUpLevel(ctx context.Context, g *graph.CSR, r *Result, visited, front, next *bitmap.Bitmap, level int32, workers int) (found, scans, degrees int64, err error) {
	n := g.NumVertices()
	live := g.NonIsolated()
	if resolveWorkers(workers, (n+buGrain-1)/buGrain) == 1 {
		found, scans, degrees = bottomUpRange(g, r, visited, front, next, live, level, 0, n)
		return found, scans, degrees, nil
	}
	var t levelTotals
	err = parallelGrains(ctx, n, buGrain, workers, func(_, start, end int) {
		f, s, d := bottomUpRange(g, r, visited, front, next, live, level, start, end)
		t.found.Add(f)
		t.scans.Add(s)
		t.degrees.Add(d)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return t.found.Load(), t.scans.Load(), t.degrees.Load(), nil
}

// bottomUpRange runs the bottom-up step over vertices [start, end). It
// walks visited a 64-bit word at a time, visits only the bits that are
// unvisited and set in live (g.NonIsolated()), and builds each next
// word in a register that it stores once. A vertex without edges can
// never be discovered, so leaving it out of the walk changes no result
// or count; live has no bits at or beyond |V|, which masks the tail
// word.
//
// start must be a multiple of 64, and end a multiple of 64 or the
// vertex count, so the range owns whole words of next. Parallel grains
// therefore write disjoint next words and disjoint parent/level slots
// with plain stores. Scan counts are exact: i+1 for a vertex whose
// first frontier neighbour sits at position i, its full degree for a
// vertex with none.
func bottomUpRange(g *graph.CSR, r *Result, visited, front, next *bitmap.Bitmap, live []uint64, level int32, start, end int) (found, scans, degrees int64) {
	seen, frontier := visited.Words(), front.Words()
	offsets, adj := g.Offsets, g.Adj
	parent, levels := r.Parent, r.Level
	for base := start; base < end; base += 64 {
		wi := base / 64
		todo := ^seen[wi] & live[wi]
		var word uint64
		for todo != 0 {
			bit := bits.TrailingZeros64(todo)
			todo &= todo - 1
			v := base + bit
			lo, hi := offsets[v], offsets[v+1]
			scanned := hi - lo
			for i, u := range adj[lo:hi] {
				if frontier[uint32(u)/64]&(1<<(uint32(u)%64)) != 0 {
					parent[v] = u
					levels[v] = level
					word |= 1 << uint(bit)
					found++
					degrees += hi - lo
					scanned = int64(i) + 1
					break
				}
			}
			scans += scanned
		}
		next.SetWord(wi, word)
	}
	return found, scans, degrees
}

// RunBottomUp runs a pure bottom-up BFS (the paper's GPUBU/CPUBU
// baseline). workers <= 0 uses GOMAXPROCS.
func RunBottomUp(g *graph.CSR, source int32, workers int) (*Result, error) {
	return Run(g, source, Options{Policy: AlwaysBottomUp, Workers: workers})
}
