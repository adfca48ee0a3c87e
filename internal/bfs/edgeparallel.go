package bfs

import (
	"context"
	"time"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// Edge-parallel top-down kernel. The vertex-parallel kernel assigns a
// frontier vertex per worker grain, so one hub's adjacency list is
// walked serially — the critical path the cost model charges GPUs for
// (Arch.ThreadRate) and the reason the paper's GPU suffers on hub
// levels. This kernel parallelizes over the frontier's *edge space*
// instead: workers claim fixed-size ranges of the concatenated
// adjacency lists, locating the owning vertices by binary search over
// a degree prefix sum. Hub lists get split across workers.

// epGrain is the edge-range grain size per claim.
const epGrain = 2048

// topDownLevelEdgeParallel expands one level top-down with
// edge-parallel work division. Semantics match topDownLevel, except
// that the second result is the frontier's own |E|cq: the last entry of
// the degree prefix sum the kernel builds anyway. It sizes its fan-out
// as topDownLevel does, from epGrain edge ranges and tdWorkerEdges
// edges per worker, and runs topDownLevelSerial inline below that. The
// prefix-sum and shard buffers come from ws so the level loop stops
// allocating once the traversal warms up. Cancellation is observed at
// grain boundaries; on error the traversal must be abandoned.
func topDownLevelEdgeParallel(ctx context.Context, g *graph.CSR, r *Result, visited *bitmap.Bitmap, queue, out []int32, level int32, workers int, ws *Workspace) ([]int32, int64, error) {
	// Degree prefix sum over the frontier.
	prefix := ws.prefixBuf(len(queue) + 1)
	prefix[0] = 0
	for i, v := range queue {
		prefix[i+1] = prefix[i] + g.Degree(v)
	}
	totalEdges := prefix[len(queue)]
	f := &ws.fan
	grains := (totalEdges + epGrain - 1) / epGrain
	nworkers := resolveWorkers(workers, int(min(grains, totalEdges/tdWorkerEdges)))
	if nworkers == 1 {
		f.ranInline()
		next, _ := topDownLevelSerial(g, r, visited, queue, out, level)
		return next, totalEdges, nil
	}

	locals := ws.workerShards(nworkers)
	a := f.prepare(g, r, level)
	a.visited, a.queue, a.prefix, a.locals = visited, queue, prefix, locals
	err := f.parallelGrains(ctx, int(totalEdges), epGrain, nworkers, func(a *levelArgs, worker, start, end int) {
		g, visited, queue, prefix := a.g, a.visited, a.queue, a.prefix
		local := a.locals[worker]
		// First frontier vertex whose edge range intersects [start, end):
		// the smallest qi with prefix[qi+1] > start.
		lo, hi := 0, len(queue)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if prefix[mid+1] > int64(start) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for pos, qi := int64(start), lo; pos < int64(end) && qi < len(queue); qi++ {
			u := queue[qi]
			adjStart := g.Offsets[u] + (pos - prefix[qi])
			adjEnd := g.Offsets[u] + (min(int64(end), prefix[qi+1]) - prefix[qi])
			for _, v := range g.Adj[adjStart:adjEnd] {
				if visited.GetAtomic(int(v)) {
					continue
				}
				if visited.SetAtomic(int(v)) {
					a.r.Parent[v] = u
					a.r.Level[v] = a.level
					local = append(local, v)
				}
			}
			pos = prefix[qi+1]
		}
		a.locals[worker] = local
	})
	if err != nil {
		return nil, 0, err
	}

	for _, l := range locals {
		out = append(out, l...)
	}
	return out, totalEdges, nil
}

// edgeParallelEngine is the edge-parallel top-down kernel as an Engine.
type edgeParallelEngine struct {
	workers int
}

// EdgeParallelEngine returns the edge-parallel top-down kernel as an
// Engine. workers <= 0 uses GOMAXPROCS.
func EdgeParallelEngine(workers int) Engine { return edgeParallelEngine{workers: workers} }

// Name implements Engine.
func (edgeParallelEngine) Name() string { return "edgeparallel" }

// Run implements Engine.
func (e edgeParallelEngine) Run(g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunContext(context.Background(), g, source, ws)
}

// RunContext implements Engine.
func (e edgeParallelEngine) RunContext(ctx context.Context, g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunObserved(ctx, g, source, ws, nil)
}

// RunObserved implements Engine. The level events report what the
// dispatcher ran: a fan-out's grains count epGrain-sized edge ranges,
// not frontier blocks, and an inline level reports one grain on one
// worker.
func (e edgeParallelEngine) RunObserved(ctx context.Context, g *graph.CSR, source int32, ws *Workspace, rec obs.Recorder) (_ *Result, err error) {
	var (
		o    tobs
		done *Result
	)
	defer func() { o.end(done, err) }()
	defer func() { recoverToError(recover(), &err) }()
	if err := checkSource(g, source); err != nil {
		return nil, err
	}
	reusedWS := ws != nil
	if ws == nil {
		ws = NewWorkspace(g.NumVertices())
	}
	o = observeStart(rec, g, source, e.Name(), reusedWS)
	r := ws.begin(g, source)
	visited := ws.visited
	visited.Set(int(source))
	unvisited := int64(g.NumVertices()) - 1
	queue := append(ws.queue[:0], source)
	spare := ws.spare
	level := int32(1)
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var stepStart time.Time
		if o.live {
			stepStart = time.Now()
		}
		out, fe, err := topDownLevelEdgeParallel(ctx, g, r, visited, queue, spare[:0], level, e.workers, ws)
		if err != nil {
			return nil, err
		}
		r.TraversedEdges += fe
		if o.live {
			o.event(obs.Event{
				Kind: obs.KindLevel, Step: level, Dir: obs.TopDown,
				FrontierVertices: int64(len(queue)),
				FrontierEdges:    fe,
				Discovered:       int64(len(out)),
				Unvisited:        unvisited,
				Grains:           ws.fan.grains,
				Workers:          int32(ws.fan.workers),
				Wall:             stepStart,
				WallDur:          time.Since(stepStart),
			})
		}
		unvisited -= int64(len(out))
		queue, spare = out, queue
		r.Directions = append(r.Directions, TopDown)
		r.StepScans = append(r.StepScans, 0)
		level++
	}
	ws.retain(r, queue, spare)
	r.VisitedCount = int64(g.NumVertices()) - unvisited
	done = r
	return r, nil
}

// RunTopDownEdgeParallel runs a pure top-down BFS with the
// edge-parallel kernel and one-shot buffers.
func RunTopDownEdgeParallel(g *graph.CSR, source int32, workers int) (*Result, error) {
	return edgeParallelEngine{workers: workers}.Run(g, source, nil)
}
