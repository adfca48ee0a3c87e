package bfs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// ManyOptions configure a batched multi-root execution.
type ManyOptions struct {
	// Engine runs each traversal; nil selects DefaultEngine (the
	// direction-optimizing hybrid at the default thresholds).
	Engine Engine
	// Concurrency is the number of roots traversed in flight at once:
	// 0 (or negative) means GOMAXPROCS, 1 forces sequential execution.
	// Each in-flight root holds one workspace.
	Concurrency int
	// Pool supplies the traversal workspaces; nil uses DefaultPool.
	Pool *WorkspacePool
	// Recorder receives the batch's telemetry: a root_dispatch /
	// root_done pair per claimed root from the dispatcher, plus every
	// traversal-level event from the engine (via Engine.RunObserved).
	// The dispatcher assigns one TraversalID per root and stamps it on
	// the bracket and the traversal's events alike, so samplers and
	// flight recorders (obs.Sampler, obs.Ring) see each root as one
	// unit. One recorder instance is shared by all in-flight roots, so
	// it must be safe for concurrent use — obs.RegistryRecorder,
	// obs.TraceWriter, obs.StreamWriter, obs.Sampler, and obs.Ring all
	// are. nil disables telemetry.
	Recorder obs.Recorder
}

func (o ManyOptions) withDefaults() ManyOptions {
	if o.Engine == nil {
		o.Engine = DefaultEngine()
	}
	if o.Pool == nil {
		o.Pool = DefaultPool
	}
	return o
}

// RunMany traverses g from every root and streams each result to
// fn(i, roots[i], r) without copying: r aliases the traversal's
// workspace and is valid only for the duration of the call (Clone it
// to keep it). fn may run concurrently from multiple goroutines when
// Concurrency != 1. This is the batched shape the Graph 500 runner
// (64 search keys on one graph) and serve's multi-source queries use.
// Workspace acquisition is amortized across the batch: each in-flight
// worker checks one workspace out of the pool and reuses it for all
// the roots it claims.
//
// With the default parallel kernels, per-root results are
// deterministic in their Level maps and validity but may differ in
// tie-broken Parent choices run to run, exactly as repeated engine
// runs do; with Workers: 1 engines, each delivered result is identical
// to an independent run from that root.
//
// Delivery guarantees:
//
//   - Each index is delivered AT MOST once, so indexed writes to
//     caller-owned slices are safe without locking.
//   - When no error occurs, every index is delivered exactly once.
//   - The batch fails fast: the first error — from a traversal, from
//     fn, or from ctx — stops the dispatch of further roots, and the
//     claim of any root not yet started is abandoned. Roots whose
//     traversal was already in flight when the error surfaced finish
//     (a cancelled ctx stops them at their next level/grain boundary)
//     and are delivered, or discarded if their own traversal errored;
//     no new ones begin. The first error is returned, ctx.Err() on
//     cancellation.
//   - Every worker goroutine has exited and every workspace is back in
//     the pool (clean) by the time it returns.
func RunMany(ctx context.Context, g *graph.CSR, roots []int32, opts ManyOptions, fn func(i int, root int32, r *Result) error) error {
	opts = opts.withDefaults()
	if len(roots) == 0 {
		return ctx.Err()
	}
	workers := resolveWorkers(opts.Concurrency, len(roots))
	n := g.NumVertices()
	rec := opts.Recorder
	live := obs.Live(rec)

	if workers == 1 {
		ws := opts.Pool.Get(n)
		defer opts.Pool.Put(ws)
		for i, root := range roots {
			if err := runManyOne(ctx, g, opts, ws, rec, live, 0, i, root, fn); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ws := opts.Pool.Get(n)
			defer opts.Pool.Put(ws)
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(roots) {
					return
				}
				// Fail-fast: a sibling may have failed between this
				// worker's loop check and its claim. Re-checking after
				// the claim closes that window — without it, a worker
				// could start a fresh multi-second traversal after the
				// batch already failed. The claimed index is abandoned,
				// which the at-most-once contract allows.
				if failed.Load() {
					return
				}
				if err := runManyOne(ctx, g, opts, ws, rec, live, worker, i, roots[i], fn); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// runManyOne traverses one claimed root and delivers it to fn,
// bracketing the work with dispatch telemetry: root_dispatch when the
// claim starts, root_done when the result has been delivered (Detail
// set if the traversal or the callback failed). The engine's own
// traversal events land between the pair on the same recorder.
//
// The dispatcher owns the root's TraversalID: it draws one per claim,
// stamps it on the dispatch bracket, and rebinds the engine's events
// to it via obs.WithTraversalID. Every event of one logical root —
// bracket and traversal alike — therefore shares one ID, which is what
// lets obs.Sampler keep or drop the root whole and obs.Ring group it
// as one flight-recorder entry. The Nop path draws no ID and wraps
// nothing, preserving the 0 allocs/op gate.
func runManyOne(ctx context.Context, g *graph.CSR, opts ManyOptions, ws *Workspace, rec obs.Recorder, live bool, worker, i int, root int32, fn func(i int, root int32, r *Result) error) error {
	var start time.Time
	runRec := rec
	var id uint64
	if live {
		id = obs.NextTraversalID()
		runRec = obs.WithTraversalID(id, rec)
		start = time.Now()
		rec.Event(obs.Event{
			Kind: obs.KindRootDispatch, TraversalID: id, Root: root, Index: int32(i),
			Dir: obs.DirNone, Workers: int32(worker), Wall: start,
		})
	}
	r, err := opts.Engine.RunObserved(ctx, g, root, ws, runRec)
	if err == nil {
		err = fn(i, root, r)
	}
	if live {
		e := obs.Event{
			Kind: obs.KindRootDone, TraversalID: id, Root: root, Index: int32(i),
			Dir: obs.DirNone, Workers: int32(worker),
			Wall: time.Now(), WallDur: time.Since(start),
		}
		if err != nil {
			e.Detail = err.Error()
		}
		rec.Event(e)
	}
	return err
}
