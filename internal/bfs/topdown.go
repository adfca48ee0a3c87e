package bfs

import (
	"context"
	"sync/atomic"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// tdGrain is the frontier block size claimed by one worker at a time.
// Small enough that a block holding a hub vertex does not serialize the
// level, large enough to amortize the claim.
const tdGrain = 256

// topDownLevel expands one level in the top-down direction: every
// frontier vertex offers itself as parent to its unvisited neighbors
// (paper Algorithm 1, lines 7-12). queue holds the current frontier,
// out receives the next frontier (passed in empty, returned possibly
// regrown), level is the distance to assign to newly found vertices.
// visited is the claim bitmap (bit set <=> vertex has a level). The
// per-worker shard slices live in ws, hoisted to once-per-traversal
// scope — they used to be rebuilt every level, which made the level
// loop itself an allocation hot spot. It also returns the degree sum of
// the vertices it claims, which is the next level's |E|cq.
//
// Cancellation is observed at grain boundaries (see parallelGrains);
// on error the returned queue is meaningless and the caller must
// abandon the traversal.
func topDownLevel(ctx context.Context, g *graph.CSR, r *Result, visited *bitmap.Bitmap, queue, out []int32, level int32, workers int, ws *Workspace) ([]int32, int64, error) {
	nworkers := resolveWorkers(workers, len(queue))
	if nworkers == 1 {
		next, degrees := topDownLevelSerial(g, r, visited, queue, out, level)
		return next, degrees, nil
	}
	locals := ws.workerShards(nworkers)
	var degrees atomic.Int64
	err := parallelGrains(ctx, len(queue), tdGrain, nworkers, func(worker, start, end int) {
		local := locals[worker]
		var deg int64
		for _, u := range queue[start:end] {
			for _, v := range g.Neighbors(u) {
				if visited.GetAtomic(int(v)) {
					continue
				}
				if visited.SetAtomic(int(v)) {
					r.Parent[v] = u
					r.Level[v] = level
					local = append(local, v)
					deg += g.Degree(v)
				}
			}
		}
		locals[worker] = local
		degrees.Add(deg)
	})
	if err != nil {
		return nil, 0, err
	}
	for _, l := range locals {
		out = append(out, l...)
	}
	return out, degrees.Load(), nil
}

func topDownLevelSerial(g *graph.CSR, r *Result, visited *bitmap.Bitmap, queue, out []int32, level int32) ([]int32, int64) {
	var degrees int64
	for _, u := range queue {
		for _, v := range g.Neighbors(u) {
			if !visited.Get(int(v)) {
				visited.Set(int(v))
				r.Parent[v] = u
				r.Level[v] = level
				out = append(out, v)
				degrees += g.Degree(v)
			}
		}
	}
	return out, degrees
}

// RunTopDown runs a pure top-down BFS (the paper's GPUTD/CPUTD
// baseline algorithm). workers <= 0 uses GOMAXPROCS.
func RunTopDown(g *graph.CSR, source int32, workers int) (*Result, error) {
	return Run(g, source, Options{Policy: AlwaysTopDown, Workers: workers})
}
