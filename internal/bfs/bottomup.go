package bfs

import (
	"context"
	"math/bits"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// buGrain is the vertex block size for bottom-up workers. Bottom-up
// scans the whole vertex range, so blocks can be larger than top-down's.
// It must stay a multiple of 64 so every grain owns whole bitmap words.
const buGrain = 4096

// bottomUpLevel expands one level in the bottom-up direction: every
// unvisited vertex looks among its neighbors for a member of the
// current frontier and adopts the first one it finds as parent (paper
// Algorithm 2, lines 7-12, including the early-exit "break"). front is
// the current frontier as a bitmap; next receives the new frontier
// (every word is overwritten, so it need not arrive cleared), and
// unvisited counts the vertices without a level. Returns the number of
// vertices discovered, the number of adjacency entries tested (see
// bottomUpRange), and the degree sum of the discovered vertices, which
// is the next level's |E|cq.
//
// The level sizes its own fan-out from the vertices it will walk:
// unvisited vertices that have an edge. It fans out to at most one
// worker per buGrain of them and runs bottomUpRange over the whole
// range inline when they fit in one. Each vertex's result comes from
// its own probe and scan, so parents, scans and counts are the same
// whichever way the level runs.
//
// Cancellation is observed at grain boundaries (see parallelGrains);
// on error the counts are meaningless and the caller must abandon the
// traversal.
func bottomUpLevel(ctx context.Context, g *graph.CSR, r *Result, visited, front, next *bitmap.Bitmap, level int32, unvisited int64, workers int, ws *Workspace) (found, scans, degrees int64, err error) {
	n := g.NumVertices()
	f := &ws.fan
	walked := max(unvisited-int64(g.NumIsolated()), 0)
	nworkers := resolveWorkers(workers, int((walked+buGrain-1)/buGrain))
	if nworkers == 1 {
		f.ranInline()
		found, scans, degrees = bottomUpRange(g, r, visited, front, next, level, 0, n)
		return found, scans, degrees, nil
	}
	a := f.prepare(g, r, level)
	a.visited, a.front, a.next = visited, front, next
	err = f.parallelGrains(ctx, n, buGrain, nworkers, func(a *levelArgs, _, start, end int) {
		nf, ns, nd := bottomUpRange(a.g, a.r, a.visited, a.front, a.next, a.level, start, end)
		a.found.Add(nf)
		a.scans.Add(ns)
		a.degrees.Add(nd)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return a.found.Load(), a.scans.Load(), a.degrees.Load(), nil
}

// bottomUpRange runs the bottom-up step over vertices [start, end). It
// walks visited a 64-bit word at a time, visits only the bits that are
// unvisited and set in g.NonIsolated(), and builds each next
// word in a register that it stores once. A vertex without edges can
// never be discovered, so leaving it out of the walk changes no result
// or count; the mask has no bits at or beyond |V|, which masks the
// tail word.
//
// Each word runs in two phases. The probe tests the frontier bit of
// hub[v] (g.Hubs()) for every walked vertex whose hasHub bit is set,
// without reading Adj: on a skewed graph the bigger neighbour is
// usually reached first, and any frontier neighbour of an unvisited
// vertex is a valid parent. The scan then walks the adjacency lists of
// the vertices the probe did not discover, in CSR order, as Algorithm
// 2 does.
//
// start must be a multiple of 64, and end a multiple of 64 or the
// vertex count, so the range owns whole words of next. Parallel grains
// therefore write disjoint next words and disjoint parent/level slots
// with plain stores. Scan counts are exact adjacency-entry tests: one
// per probe, plus, for a vertex the probe did not discover, i+1 when
// its first frontier neighbour sits at position i and its full degree
// when it has none. The hub is one of v's entries, so a missed probe
// and the scan can test the same entry twice. ComputeTrace counts the
// paper kernel's CSR-order scans alone.
func bottomUpRange(g *graph.CSR, r *Result, visited, front, next *bitmap.Bitmap, level int32, start, end int) (found, scans, degrees int64) {
	live := g.NonIsolated()
	hub, hasHub := g.Hubs()
	seen, frontier := visited.Words(), front.Words()
	offsets, adj := g.Offsets, g.Adj
	parent, levels := r.Parent, r.Level
	for base := start; base < end; base += 64 {
		wi := base / 64
		todo := ^seen[wi] & live[wi]
		probe := todo & hasHub[wi]
		var word uint64
		for p := probe; p != 0; p &= p - 1 {
			bit := bits.TrailingZeros64(p)
			h := uint32(hub[base+bit])
			word |= (frontier[h/64] >> (h % 64) & 1) << uint(bit)
		}
		scans += int64(bits.OnesCount64(probe))
		found += int64(bits.OnesCount64(word))
		for hits := word; hits != 0; hits &= hits - 1 {
			v := base + bits.TrailingZeros64(hits)
			parent[v] = hub[v]
			levels[v] = level
			degrees += offsets[v+1] - offsets[v]
		}
		todo &^= word
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
