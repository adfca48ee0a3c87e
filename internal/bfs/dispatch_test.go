package bfs

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// levelEvents runs one traversal of g from src under opts and returns
// its level events, in step order.
func levelEvents(t *testing.T, g *graph.CSR, src int32, opts Options) []obs.Event {
	t.Helper()
	rec := &lockedRecorder{}
	opts.Recorder = rec
	if _, err := Run(context.Background(), g, src, opts, nil); err != nil {
		t.Fatal(err)
	}
	var levels []obs.Event
	for _, e := range rec.events {
		if e.Kind == obs.KindLevel {
			levels = append(levels, e)
		}
	}
	return levels
}

// wantDispatch is the sizing rule a level event must report at the
// given worker count: one grain on one worker for an inline level, and
// the grain count over the level's range with the workers that claimed
// them for a fan-out.
func wantDispatch(g *graph.CSR, e obs.Event, workers int) (grains int64, nworkers int32) {
	if e.Dir == obs.BottomUp {
		walked := max(e.Unvisited-int64(g.NumIsolated()), 0)
		if w := min(int64(workers), (walked+buGrain-1)/buGrain); w > 1 {
			return int64((g.NumVertices() + buGrain - 1) / buGrain), int32(w)
		}
		return 1, 1
	}
	blocks := (e.FrontierVertices + tdGrain - 1) / tdGrain
	if w := min(int64(workers), blocks, e.FrontierEdges/tdWorkerEdges); w > 1 {
		return blocks, int32(w)
	}
	return 1, 1
}

// TestLevelDispatchSizing checks, through the level events, that each
// level sizes its fan-out from its own work and reports what ran.
func TestLevelDispatchSizing(t *testing.T) {
	hybrid := MN{M: DefaultM, N: DefaultN}

	t.Run("lattice inline", func(t *testing.T) {
		// A long-diameter frontier never holds enough edges to fan out,
		// not even the levels that span two vertex grains.
		const side = 256
		g := latticeGraph(t, side)
		levels := levelEvents(t, g, side*side/2+side/2, Options{Policy: hybrid, Workers: 2})
		if len(levels) < side {
			t.Fatalf("lattice traversal took %d levels, want a long diameter", len(levels))
		}
		wide := 0
		for _, e := range levels {
			if e.FrontierVertices > tdGrain {
				wide++
			}
			if e.Workers != 1 || e.Grains != 1 {
				t.Fatalf("step %d (%s, |V|cq %d, |E|cq %d): ran %d grains on %d workers, want 1/1",
					e.Step, e.Dir, e.FrontierVertices, e.FrontierEdges, e.Grains, e.Workers)
			}
		}
		if wide == 0 {
			t.Fatal("no lattice level spans two vertex grains")
		}
	})

	t.Run("rmat14 widest bottom-up level", func(t *testing.T) {
		g := testRMAT(t, 14, 8, 7)
		levels := levelEvents(t, g, firstUsable(t, g), Options{Policy: hybrid, Workers: 2})
		var widest obs.Event
		for _, e := range levels {
			if e.Dir == obs.BottomUp && e.Unvisited > widest.Unvisited {
				widest = e
			}
			if grains, workers := wantDispatch(g, e, 2); e.Grains != grains || e.Workers != workers {
				t.Errorf("step %d (%s, |V|cq %d, |E|cq %d, unvisited %d): ran %d grains on %d workers, want %d on %d",
					e.Step, e.Dir, e.FrontierVertices, e.FrontierEdges, e.Unvisited, e.Grains, e.Workers, grains, workers)
			}
		}
		if widest.Workers != 2 || widest.Grains <= 1 {
			t.Fatalf("widest bottom-up level (step %d) ran %d grains on %d workers, want >1 on 2",
				widest.Step, widest.Grains, widest.Workers)
		}
		if last := levels[len(levels)-1]; last.Workers != 1 {
			t.Errorf("last level (step %d, %s) ran on %d workers, want inline", last.Step, last.Dir, last.Workers)
		}
	})

	t.Run("star hub level", func(t *testing.T) {
		// Rooted at a leaf, step 2 expands the hub alone: one vertex,
		// |V|-1 edges, one grain.
		g := starGraph(t, 5000)
		const leaf = 1
		for _, p := range []struct {
			name   string
			policy Policy
		}{{"topdown", AlwaysTopDown}, {"hybrid", hybrid}} {
			want, err := Run(context.Background(), g, leaf, Options{Policy: p.policy, Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(context.Background(), g, leaf, Options{Policy: p.policy, Workers: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			exactSame(t, p.name+" star at 2 workers vs 1", want, got)
			if p.policy != AlwaysTopDown {
				continue
			}
			levels := levelEvents(t, g, leaf, Options{Policy: p.policy, Workers: 2})
			hub := levels[1]
			if hub.FrontierVertices != 1 || hub.FrontierEdges != int64(g.NumVertices()-1) {
				t.Fatalf("step 2 expands %d vertices and %d edges, want the hub alone", hub.FrontierVertices, hub.FrontierEdges)
			}
			if hub.Grains != 1 || hub.Workers != 1 {
				t.Errorf("hub level ran %d grains on %d workers, want 1/1", hub.Grains, hub.Workers)
			}
		}
	})
}

// fanoutCancelCtx closes its Done channel at the (after+1)-th Done
// call and reports context.Canceled from then on. The runner polls
// only Err, and each fan-out worker calls Done once before its first
// claim, so after = 1 cancels the first two-worker fan-out while it
// runs: whichever of its workers asks second stops it.
type fanoutCancelCtx struct {
	context.Context
	after int64
	calls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newFanoutCancelCtx(after int) *fanoutCancelCtx {
	return &fanoutCancelCtx{Context: context.Background(), after: int64(after), done: make(chan struct{})}
}

func (c *fanoutCancelCtx) Done() <-chan struct{} {
	if c.calls.Add(1) > c.after {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *fanoutCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// checkReleased fails the test if ws's dispatcher still references a
// fan-out's context, callback or kernel arguments, which would keep a
// graph alive in a pooled workspace.
func checkReleased(t *testing.T, when string, ws *Workspace) {
	t.Helper()
	f, a := &ws.fan, &ws.fan.args
	if f.ctx != nil || f.fn != nil || f.err != nil || a.g != nil || a.r != nil ||
		a.visited != nil || a.front != nil || a.next != nil || a.queue != nil || a.locals != nil {
		t.Errorf("%s: the workspace's dispatcher still holds a fan-out's state", when)
	}
}

// TestLevelDispatchReuseAfterFailure fails a traversal inside a
// two-worker fan-out, by a worker panic and by a cancel, and checks
// that no goroutine is left and that the next traversal on the same
// workspace matches one on a fresh workspace bit for bit.
func TestLevelDispatchReuseAfterFailure(t *testing.T) {
	g := testRMAT(t, 14, 8, 7)
	src := firstUsable(t, g)
	opts := Options{Policy: MN{M: DefaultM, N: DefaultN}, Workers: 2}
	// The reference fans out on bottom-up levels only, whose results do
	// not depend on the race, so it is deterministic at two workers.
	fannedOut := false
	for _, e := range levelEvents(t, g, src, opts) {
		if e.Workers > 1 {
			fannedOut = true
			if e.Dir != obs.BottomUp {
				t.Fatalf("step %d fans out top-down; the reference would not be deterministic", e.Step)
			}
		}
	}
	if !fannedOut {
		t.Fatal("reference traversal never fans out")
	}
	fresh, err := Run(context.Background(), g, src, opts, NewWorkspace(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	fresh = fresh.Clone()

	reuse := func(t *testing.T, ws *Workspace, base int) {
		t.Helper()
		settleGoroutines(t, t.Name(), base)
		checkReleased(t, "after the failure", ws)
		got, err := Run(context.Background(), g, src, opts, ws)
		if err != nil {
			t.Fatalf("reuse: %v", err)
		}
		exactSame(t, "reuse vs fresh workspace", fresh, got)
		checkReleased(t, "after the reuse", ws)
	}

	t.Run("worker panic", func(t *testing.T) {
		// Corrupt one adjacency entry of a vertex in the first top-down
		// frontier that fans out, so the worker that scans it panics.
		topDown := Options{Policy: AlwaysTopDown, Workers: 2}
		ref, err := Run(context.Background(), g, src, topDown, nil)
		if err != nil {
			t.Fatal(err)
		}
		step := int32(-1)
		for _, e := range levelEvents(t, g, src, topDown) {
			if e.Workers > 1 {
				step = e.Step
				break
			}
		}
		if step < 0 {
			t.Fatal("pure top-down traversal never fans out")
		}
		adj := append([]int32(nil), g.Adj...)
		for v, l := range ref.Level {
			if l == step-1 && g.Degree(int32(v)) > 0 {
				adj[g.Offsets[v]] = 1 << 30
				break
			}
		}
		bad := &graph.CSR{Offsets: g.Offsets, Adj: adj}

		base := runtime.NumGoroutine()
		ws := NewWorkspace(g.NumVertices())
		_, err = Run(context.Background(), bad, src, topDown, ws)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v (%T), want *PanicError", err, err)
		}
		reuse(t, ws, base)
	})

	t.Run("cancel mid fan-out", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ws := NewWorkspace(g.NumVertices())
		ctx := newFanoutCancelCtx(1)
		if _, err := Run(ctx, g, src, opts, ws); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := ctx.calls.Load(); n != 2 {
			t.Fatalf("ctx.Done called %d times, want 2: the traversal did not stop in its first fan-out", n)
		}
		reuse(t, ws, base)
	})
}
