package bfs

import (
	"context"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// tdGrain is the frontier block size claimed by one worker at a time.
// Small enough that a block holding a hub vertex does not serialize the
// level, large enough to amortize the claim.
const tdGrain = 256

// tdWorkerEdges is the frontier edge count (|E|cq) that each worker of
// a top-down fan-out must have to itself: a level fans out to at most
// |E|cq/tdWorkerEdges workers. It is the measured crossover. Timing
// single levels of more than one grain (2 vCPUs, median of 41 runs,
// R-MAT SCALE 12-17 and 512/1024-side lattices, 174 readings), the
// CAS-claiming fan-out at two workers beat the serial kernel on 44 of
// 66 levels of 64k edges or more (median time ratio 0.91), but on 20
// of 108 below that (median ratios 1.11-1.39 by size), and on 1 of 40
// lattice levels, whose frontiers of up to 8,178 edges share bitmap
// words between the workers.
const tdWorkerEdges = 1 << 15

// topDownLevel expands one level in the top-down direction: every
// frontier vertex offers itself as parent to its unvisited neighbors
// (paper Algorithm 1, lines 7-12). queue holds the current frontier and
// edges its |E|cq; out receives the next frontier (passed in empty,
// returned possibly regrown), level is the distance to assign to newly
// found vertices. visited is the claim bitmap (bit set <=> vertex has a
// level). It also returns the degree sum of the vertices it claims,
// which is the next level's |E|cq.
//
// The level sizes its own fan-out: it fans out only when the frontier
// spans at least two tdGrain blocks and edges gives each worker
// tdWorkerEdges, and otherwise runs topDownLevelSerial inline. A
// fan-out claims vertices with atomic CAS into per-worker shards from
// ws, so its parents and queue order depend on the race; the inline
// kernel is deterministic.
//
// Cancellation is observed at grain boundaries (see parallelGrains);
// on error the returned queue is meaningless and the caller must
// abandon the traversal.
func topDownLevel(ctx context.Context, g *graph.CSR, r *Result, visited *bitmap.Bitmap, queue, out []int32, level int32, edges int64, workers int, ws *Workspace) ([]int32, int64, error) {
	f := &ws.fan
	grains := (len(queue) + tdGrain - 1) / tdGrain
	nworkers := resolveWorkers(workers, int(min(int64(grains), edges/tdWorkerEdges)))
	if nworkers == 1 {
		f.ranInline()
		next, degrees := topDownLevelSerial(g, r, visited, queue, out, level)
		return next, degrees, nil
	}
	locals := ws.workerShards(nworkers)
	a := f.prepare(g, r, level)
	a.visited, a.queue, a.locals = visited, queue, locals
	err := f.parallelGrains(ctx, len(queue), tdGrain, nworkers, func(a *levelArgs, worker, start, end int) {
		g, visited := a.g, a.visited
		local := a.locals[worker]
		var deg int64
		for _, u := range a.queue[start:end] {
			for _, v := range g.Neighbors(u) {
				if visited.GetAtomic(int(v)) {
					continue
				}
				if visited.SetAtomic(int(v)) {
					a.r.Parent[v] = u
					a.r.Level[v] = a.level
					local = append(local, v)
					deg += g.Degree(v)
				}
			}
		}
		a.locals[worker] = local
		a.degrees.Add(deg)
	})
	if err != nil {
		return nil, 0, err
	}
	for _, l := range locals {
		out = append(out, l...)
	}
	return out, a.degrees.Load(), nil
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
