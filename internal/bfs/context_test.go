package bfs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stepCancelCtx is a context that reports cancellation after a fixed
// number of Err() polls. The traversal entry points poll Err() once up
// front and once per level boundary, so an after of k cancels a
// traversal deterministically partway through — no sleeps, no timing
// races, reproducible under -race and -count=100.
type stepCancelCtx struct {
	context.Context
	after int64
	calls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newStepCancelCtx(after int) *stepCancelCtx {
	return &stepCancelCtx{Context: context.Background(), after: int64(after), done: make(chan struct{})}
}

func (c *stepCancelCtx) Err() error {
	if c.calls.Add(1) > c.after {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *stepCancelCtx) Done() <-chan struct{} { return c.done }

// settleGoroutines waits for the goroutine count to return to base,
// giving exiting workers time to be reaped. Cancellation abandons
// grain claims, so workers need a moment to observe the stop flag and
// unwind — but they must all get there.
func settleGoroutines(t *testing.T, name string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: goroutine leak: %d goroutines alive, started with %d", name, runtime.NumGoroutine(), base)
}

func allEngines() []Engine {
	return []Engine{
		SerialEngine(),
		TopDownEngine(4),
		BottomUpEngine(4),
		HybridEngine(64, 64, 4),
		beamerEngine(4),
		hongEngine(4),
	}
}

// TestCancelMidTraversalAllEngines is the headline robustness test:
// every kernel, cancelled mid-traversal, must return context.Canceled,
// leak no goroutines, and leave its workspace so clean that the very
// next traversal on it matches the serial reference exactly.
func TestCancelMidTraversalAllEngines(t *testing.T) {
	g := testRMAT(t, 10, 8, 2)
	src := firstUsable(t, g)
	want, err := SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumLevels() < 5 {
		t.Fatalf("test graph too shallow (%d levels); mid-traversal cancel needs >= 5", want.NumLevels())
	}
	base := runtime.NumGoroutine()
	for _, e := range allEngines() {
		ws := NewWorkspace(g.NumVertices())
		ctx := newStepCancelCtx(3)
		r, err := e.RunObserved(ctx, g, src, ws, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", e.Name(), err)
		}
		if r != nil {
			t.Fatalf("%s: cancelled traversal returned a non-nil result", e.Name())
		}
		settleGoroutines(t, e.Name(), base)

		// The cancelled workspace must be pool-clean: reusing it must
		// reproduce the reference traversal.
		got, err := e.RunObserved(context.Background(), g, src, ws, nil)
		if err != nil {
			t.Fatalf("%s: post-cancel reuse: %v", e.Name(), err)
		}
		sameTraversal(t, e.Name()+" (post-cancel reuse)", want, got)
		if err := Validate(g, got); err != nil {
			t.Fatalf("%s: post-cancel reuse: %v", e.Name(), err)
		}
	}
	settleGoroutines(t, "all engines", base)
}

// TestRecycledWorkspaceBitIdentical pins the strongest form of the
// pool-hygiene contract: with a deterministic (Workers: 1) engine, a
// workspace recycled after a mid-traversal cancel produces a Result
// bit-identical — every field — to one from a fresh workspace.
func TestRecycledWorkspaceBitIdentical(t *testing.T) {
	g := testRMAT(t, 10, 8, 3)
	src := firstUsable(t, g)
	engines := []Engine{
		SerialEngine(),
		TopDownEngine(1),
		BottomUpEngine(1),
		HybridEngine(64, 64, 1),
	}
	for _, e := range engines {
		fresh, err := e.Run(g, src, NewWorkspace(g.NumVertices()))
		if err != nil {
			t.Fatalf("%s: fresh: %v", e.Name(), err)
		}
		fresh = fresh.Clone()

		ws := NewWorkspace(g.NumVertices())
		if _, err := e.RunObserved(newStepCancelCtx(2), g, src, ws, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancel: err = %v, want context.Canceled", e.Name(), err)
		}
		recycled, err := e.Run(g, src, ws)
		if err != nil {
			t.Fatalf("%s: recycled: %v", e.Name(), err)
		}
		exactSame(t, e.Name()+" (recycled vs fresh)", fresh, recycled)
	}
}

// TestDeadlineExceededAllEngines checks the deadline path returns
// context.DeadlineExceeded verbatim, so callers can match on it.
func TestDeadlineExceededAllEngines(t *testing.T) {
	g := testRMAT(t, 9, 8, 1)
	src := firstUsable(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	for _, e := range allEngines() {
		if _, err := e.RunObserved(ctx, g, src, nil, nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", e.Name(), err)
		}
	}
	if _, err := Run(ctx, g, src, Options{}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPreCancelledContext checks the fast path: a context cancelled
// before the traversal starts never touches the graph.
func TestPreCancelledContext(t *testing.T) {
	g := pathGraph(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range allEngines() {
		if _, err := e.RunObserved(ctx, g, 0, nil, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.Name(), err)
		}
	}
	err := RunMany(ctx, g, []int32{0, 1}, ManyOptions{}, func(int, int32, *Result) error {
		t.Error("callback ran under a pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunMany: err = %v, want context.Canceled", err)
	}
}

// TestPolicyPanicContained checks that a panic in the policy's Choose
// surfaces as a *PanicError instead of killing the process, with the
// panic value and a stack preserved.
func TestPolicyPanicContained(t *testing.T) {
	g := testRMAT(t, 9, 8, 2)
	src := firstUsable(t, g)
	boom := PolicyFunc(func(s StepInfo) Direction {
		if s.Step == 3 {
			panic("policy kaboom")
		}
		return TopDown
	})
	ws := NewWorkspace(g.NumVertices())
	_, err := Run(context.Background(), g, src, Options{Policy: boom, Workers: 2}, ws)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "policy kaboom" {
		t.Errorf("PanicError.Value = %v, want %q", pe.Value, "policy kaboom")
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
	// The workspace survives the panic pool-clean.
	want, err := SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), g, src, Options{Workers: 1}, ws)
	if err != nil {
		t.Fatalf("post-panic reuse: %v", err)
	}
	sameTraversal(t, "post-panic reuse", want, got)
}

// TestParallelGrainsWorkerPanic checks panic containment inside the
// worker pool itself: a panicking grain function must come back as a
// *PanicError from the coordinating call, with every worker exited.
func TestParallelGrainsWorkerPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		err := new(fanout).parallelGrains(context.Background(), 1000, 16, workers, func(_ *levelArgs, _, start, _ int) {
			if start >= 500 {
				panic(fmt.Sprintf("grain kaboom at %d", start))
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *PanicError", workers, err, err)
		}
		settleGoroutines(t, fmt.Sprintf("parallelGrains workers=%d", workers), base)
	}
}

// TestParallelGrainsFirstCauseWins has both workers of a fan-out
// panic, the second only after the first panic has stopped the
// fan-out: the error must carry the first panic's value.
func TestParallelGrainsFirstCauseWins(t *testing.T) {
	f := new(fanout)
	var calls atomic.Int64
	err := f.parallelGrains(context.Background(), 2, 1, 2, func(_ *levelArgs, _, _, _ int) {
		if calls.Add(1) == 1 {
			for calls.Load() < 2 { // both workers are inside a grain
				runtime.Gosched()
			}
			panic("first")
		}
		for !f.stop.Load() {
			runtime.Gosched()
		}
		panic("second")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "first" {
		t.Fatalf("err = %v, want the first panic", err)
	}
}

// TestParallelGrainsCancelStopsClaims checks the grain-boundary
// cancellation point: after cancel, workers stop claiming new grains.
func TestParallelGrainsCancelStopsClaims(t *testing.T) {
	// Single worker: deterministic — the grain after the cancelling one
	// is never run.
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := new(fanout).parallelGrains(ctx, 1000, 10, 1, func(_ *levelArgs, _, _, _ int) {
		if calls.Add(1) == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("workers=1: err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("workers=1: %d grains ran after cancel-on-first, want 1", n)
	}

	// Multi worker: each in-flight worker may finish its current grain,
	// but none may claim another. No grain returns before the cancel
	// has closed Done, so the bound does not depend on how long the
	// cancelling worker takes inside cancel2 while the others run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	const totalGrains, workers = 100000 / 16, 8
	var calls2 atomic.Int64
	err = new(fanout).parallelGrains(ctx2, 100000, 16, workers, func(_ *levelArgs, _, _, _ int) {
		if calls2.Add(1) == 1 {
			cancel2()
		}
		<-ctx2.Done()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("workers=8: err = %v, want context.Canceled", err)
	}
	if n := calls2.Load(); n > workers {
		t.Fatalf("workers=8: %d of %d grains ran after early cancel, want at most one per worker", n, totalGrains)
	}
}

// TestRunManyContextCancellation cancels a batch partway through and
// checks the fail-fast + at-most-once contract: context.Canceled comes
// back, each index is delivered at most once, and almost all of the
// batch is abandoned.
func TestRunManyContextCancellation(t *testing.T) {
	g := testRMAT(t, 9, 8, 3)
	src := firstUsable(t, g)
	roots := make([]int32, 256)
	for i := range roots {
		roots[i] = src
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	counts := make([]atomic.Int32, len(roots))
	var delivered atomic.Int64
	err := RunMany(ctx, g, roots, ManyOptions{Concurrency: 4}, func(i int, _ int32, _ *Result) error {
		counts[i].Add(1)
		if delivered.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range counts {
		if n := counts[i].Load(); n > 1 {
			t.Errorf("index %d delivered %d times", i, n)
		}
	}
	if n := delivered.Load(); n > int64(len(roots))/2 {
		t.Errorf("%d of %d roots delivered after cancel at the 3rd", n, len(roots))
	}
}
