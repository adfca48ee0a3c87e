package bfs

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// PanicError wraps a panic recovered inside a traversal — a worker
// goroutine or the level loop itself. Converting panics to errors is
// part of the fault-containment contract: a bug (or an injected
// fault) in one traversal must fail that traversal, not kill a
// process serving many.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("bfs: traversal panicked: %v", e.Value)
}

// recoverToError converts a recovered panic value into a *PanicError,
// capturing the stack. Call as: defer func() { recoverToError(recover(), &err) }().
func recoverToError(v any, dst *error) {
	if v == nil {
		return
	}
	*dst = &PanicError{Value: v, Stack: debug.Stack()}
}

// resolveWorkers maps the user-facing worker count (0 = automatic) to
// an effective one, never exceeding the amount of work available.
func resolveWorkers(requested, workItems int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > workItems {
		w = workItems
	}
	if w < 1 {
		w = 1
	}
	return w
}

// grainFunc is one grain of a level kernel: it processes [start, end)
// on worker, reading the level's arguments from a and adding its
// totals to a, which every worker of the fan-out shares. Kernels pass
// func literals that capture nothing; such a literal is a static
// value, so passing one to parallelGrains allocates nothing.
type grainFunc func(a *levelArgs, worker, start, end int)

// levelArgs holds one level's kernel arguments and its totals across
// workers. It lives in the workspace's fanout, so a fan-out builds no
// closure over them; a kernel fills it before its fan-out, and
// parallelGrains clears its references after.
type levelArgs struct {
	g                    *graph.CSR
	r                    *Result
	visited, front, next *bitmap.Bitmap
	queue                []int32
	prefix               []int64   // edge-parallel degree prefix sum
	locals               [][]int32 // per-worker top-down output shards
	level                int32

	found, scans, degrees atomic.Int64
}

// fanout is a workspace's level dispatcher: the kernel arguments of
// the level it runs, the scheduler state of a fan-out, and what the
// last level ran, which the runner reports in the level event. It is
// reset, not rebuilt, for each fan-out, so a fan-out allocates
// nothing once the workspace has run one at its width.
type fanout struct {
	args levelArgs

	ctx      context.Context
	fn       grainFunc
	n, grain int
	cursor   atomic.Int64
	stop     atomic.Bool // set by the first stop cause, whose CAS writes err
	err      error       // first stop cause; read only after wg.Wait
	wg       sync.WaitGroup
	// starts[w] runs worker w's claim loop. Each is built once, at the
	// first fan-out that wide: `go starts[w]()` allocates nothing,
	// while `go f.work(w)` would allocate a closure per spawn.
	starts []func()

	// grains and workers are what the last level ran: its grain count
	// and the workers that claimed them (1 and 1 for an inline level).
	grains  int64
	workers int
}

// prepare returns the kernel arguments for a fan-out over g and r at
// level, with the totals zeroed. The kernel fills the rest.
func (f *fanout) prepare(g *graph.CSR, r *Result, level int32) *levelArgs {
	a := &f.args
	a.g, a.r, a.level = g, r, level
	a.found.Store(0)
	a.scans.Store(0)
	a.degrees.Store(0)
	return a
}

// release drops every reference a fan-out holds (its context,
// callback, error and kernel arguments) so that a pooled workspace
// keeps no graph or result alive. The totals stay for the kernel.
func (f *fanout) release() {
	f.ctx, f.fn, f.err = nil, nil, nil
	a := &f.args
	a.g, a.r, a.visited, a.front, a.next = nil, nil, nil, nil, nil
	a.queue, a.prefix, a.locals = nil, nil, nil
}

// ranInline records a level that ran its serial kernel inline.
func (f *fanout) ranInline() { f.grains, f.workers = 1, 1 }

// parallelGrains runs fn over [0, n) split into grain-sized blocks
// claimed dynamically by workers — dynamic scheduling because R-MAT
// frontiers have wildly skewed per-vertex work (a handful of hub
// vertices own most edges). The kernels size workers from the level's
// own work and call it only to fan out; a level too small for two
// workers runs its serial kernel inline instead. fn reads its
// arguments from f.args.
//
// A fan-out allocates nothing: the scheduler state lives in f, fn is
// a static func value, and the calling goroutine runs worker 0 while
// workers 1.. start from func values built once. It records the grain
// count and the workers it ran in f.grains and f.workers, and releases
// f's references on return.
//
// Cancellation and containment contract: workers observe ctx between
// grain claims, so a cancel is honored within one grain of work; a
// panicking worker is recovered and surfaced as a *PanicError. In
// both cases every worker goroutine has exited by the time
// parallelGrains returns (the WaitGroup is unconditional), so callers
// never leak goroutines and the caller's buffers are quiescent — safe
// to reset and return to a pool.
//
// The first stop cause wins: ctx.Err() for cancellation, *PanicError
// for a worker panic. fn must tolerate having processed only a prefix
// of the grains when an error is returned.
func (f *fanout) parallelGrains(ctx context.Context, n, grain, workers int, fn grainFunc) (err error) {
	defer f.release()
	if n <= 0 {
		return ctx.Err()
	}
	if grain < 1 {
		grain = 1
	}
	grains := (n + grain - 1) / grain
	workers = resolveWorkers(workers, grains)
	f.grains, f.workers = int64(grains), workers
	if workers == 1 {
		// Inline path: no goroutines, but the same per-grain
		// cancellation points and panic containment as a fan-out.
		defer func() { recoverToError(recover(), &err) }()
		done := ctx.Done()
		for start := 0; start < n; start += grain {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(&f.args, 0, start, min(start+grain, n))
		}
		return nil
	}

	f.ctx, f.fn, f.n, f.grain = ctx, fn, n, grain
	f.cursor.Store(0)
	f.stop.Store(false)
	for w := len(f.starts); w < workers; w++ {
		f.starts = append(f.starts, func() { f.work(w) })
	}
	f.wg.Add(workers)
	//lint:ctx-ok every worker checks ctx before each grain claim; the spawn loop itself is O(workers)
	for _, run := range f.starts[1:workers] {
		go run()
	}
	f.work(0)
	f.wg.Wait()
	return f.err
}

// fail records the first stop cause and stops the other workers at
// their next grain claim.
func (f *fanout) fail(e error) {
	if f.stop.CompareAndSwap(false, true) {
		f.err = e
	}
}

// work is one worker's claim loop.
func (f *fanout) work(worker int) {
	defer f.wg.Done()
	// A panic in fn must not escape the goroutine (it would kill the
	// process); convert it to the traversal's error and stop the other
	// workers at their next grain claim.
	defer func() {
		if v := recover(); v != nil {
			var perr error
			recoverToError(v, &perr)
			f.fail(perr)
		}
	}()
	done := f.ctx.Done()
	for !f.stop.Load() {
		select {
		case <-done:
			f.fail(f.ctx.Err())
			return
		default:
		}
		start := int(f.cursor.Add(int64(f.grain))) - f.grain
		if start >= f.n {
			return
		}
		f.fn(&f.args, worker, start, min(start+f.grain, f.n))
	}
}
