package bfs

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

// parallelGrains runs fn over [0, n) split into grain-sized blocks
// claimed dynamically by workers — dynamic scheduling because R-MAT
// frontiers have wildly skewed per-vertex work (a handful of hub
// vertices own most edges).
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
func parallelGrains(ctx context.Context, n, grain, workers int, fn func(worker, start, end int)) (err error) {
	if n <= 0 {
		return ctx.Err()
	}
	if grain < 1 {
		grain = 1
	}
	workers = resolveWorkers(workers, (n+grain-1)/grain)
	if workers == 1 {
		// Inline fast path: no goroutines, but the same per-grain
		// cancellation points and panic containment as the fan-out path.
		defer func() { recoverToError(recover(), &err) }()
		done := ctx.Done()
		for start := 0; start < n; start += grain {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			end := start + grain
			if end > n {
				end = n
			}
			fn(0, start, end)
		}
		return nil
	}

	s := &grainSched{ctx: ctx, fn: fn, n: n, grain: grain}
	//lint:ctx-ok every worker checks ctx before each grain claim; the spawn loop itself is O(workers)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.work(w)
	}
	s.wg.Wait()
	return s.err
}

// grainSched is one fan-out's scheduler state. It lives in a single
// object so a fan-out allocates it once, not field by field.
type grainSched struct {
	ctx      context.Context
	fn       func(worker, start, end int)
	n, grain int

	cursor  atomic.Int64
	stop    atomic.Bool
	errOnce sync.Once
	err     error // first stop cause; read only after wg.Wait
	wg      sync.WaitGroup
}

// fail records the first stop cause and stops the other workers at
// their next grain claim.
func (s *grainSched) fail(e error) {
	s.errOnce.Do(func() { s.err = e })
	s.stop.Store(true)
}

// work is one worker's claim loop.
func (s *grainSched) work(worker int) {
	defer s.wg.Done()
	// A panic in fn must not escape the goroutine (it would kill the
	// process); convert it to the traversal's error and stop the other
	// workers at their next grain claim.
	defer func() {
		if v := recover(); v != nil {
			var perr error
			recoverToError(v, &perr)
			s.fail(perr)
		}
	}()
	done := s.ctx.Done()
	for !s.stop.Load() {
		select {
		case <-done:
			s.fail(s.ctx.Err())
			return
		default:
		}
		start := int(s.cursor.Add(int64(s.grain))) - s.grain
		if start >= s.n {
			return
		}
		s.fn(worker, start, min(start+s.grain, s.n))
	}
}
