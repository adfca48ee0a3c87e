package bfs

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// sampleRoots picks up to max distinct non-isolated vertices, evenly
// spread over the id range. (graph500.SampleRoots is the public
// sampler; it cannot be imported here without a cycle.)
func sampleRoots(t *testing.T, g interface {
	NumVertices() int
	Degree(int32) int64
}, max int) []int32 {
	t.Helper()
	n := g.NumVertices()
	stride := n/max + 1
	var roots []int32
	for v := 0; v < n && len(roots) < max; v += stride {
		for u := v; u < n; u++ {
			if g.Degree(int32(u)) > 0 {
				roots = append(roots, int32(u))
				break
			}
		}
	}
	if len(roots) == 0 {
		t.Fatal("no usable roots")
	}
	return roots
}

// runManyCloned runs RunMany and keeps a durable clone of each
// delivered result, in root order.
func runManyCloned(g *graph.CSR, roots []int32, opts ManyOptions) ([]*Result, error) {
	results := make([]*Result, len(roots))
	err := RunMany(context.Background(), g, roots, opts, func(i int, _ int32, r *Result) error {
		results[i] = r.Clone()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// TestRunManyMatchesIndependentRuns is the batching property test:
// with a deterministic (Workers: 1) engine, RunMany over N roots is
// element-wise identical to N independent Run calls, at every
// concurrency setting.
func TestRunManyMatchesIndependentRuns(t *testing.T) {
	g := testRMAT(t, 10, 8, 2)
	roots := sampleRoots(t, g, 12)
	for _, e := range []Engine{SerialEngine(), HybridEngine(64, 64, 1)} {
		for _, conc := range []int{1, 4, 0} {
			got, err := runManyCloned(g, roots, ManyOptions{Engine: e, Concurrency: conc})
			if err != nil {
				t.Fatalf("%s conc=%d: %v", e.Name(), conc, err)
			}
			if len(got) != len(roots) {
				t.Fatalf("%s conc=%d: %d results, want %d", e.Name(), conc, len(got), len(roots))
			}
			for i, root := range roots {
				want, err := e.Run(g, root, nil)
				if err != nil {
					t.Fatal(err)
				}
				exactSame(t, fmt.Sprintf("%s conc=%d root[%d]=%d", e.Name(), conc, i, root), want, got[i])
			}
		}
	}
}

// TestRunManyParallelEnginesValid covers the default (parallel)
// engine, whose Parent tie-breaks are nondeterministic: levels must
// still match the serial reference and every tree must validate.
func TestRunManyParallelEnginesValid(t *testing.T) {
	g := testRMAT(t, 10, 8, 4)
	roots := sampleRoots(t, g, 8)
	results, err := runManyCloned(g, roots, ManyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, root := range roots {
		want, err := SerialEngine().Run(g, root, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameTraversal(t, fmt.Sprintf("root[%d]=%d", i, root), want, results[i])
		if err := Validate(g, results[i]); err != nil {
			t.Fatalf("root[%d]=%d: %v", i, root, err)
		}
	}
}

// TestRunManyFuncDeliversEachIndexOnce checks the dispatch contract
// that makes unsynchronized indexed writes in callbacks safe.
func TestRunManyFuncDeliversEachIndexOnce(t *testing.T) {
	g := testRMAT(t, 9, 8, 1)
	roots := sampleRoots(t, g, 16)
	counts := make([]atomic.Int32, len(roots))
	err := RunMany(context.Background(), g, roots, ManyOptions{Concurrency: 4}, func(i int, root int32, r *Result) error {
		if roots[i] != root {
			return fmt.Errorf("callback got root %d at index %d, want %d", root, i, roots[i])
		}
		if r.Source != root {
			return fmt.Errorf("result source %d, want %d", r.Source, root)
		}
		counts[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Errorf("index %d delivered %d times", i, n)
		}
	}
}

func TestRunManyPropagatesCallbackError(t *testing.T) {
	g := pathGraph(t, 20)
	roots := []int32{0, 5, 10, 15}
	sentinel := errors.New("boom")
	for _, conc := range []int{1, 3} {
		err := RunMany(context.Background(), g, roots, ManyOptions{Concurrency: conc}, func(i int, _ int32, _ *Result) error {
			if i == 2 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("conc=%d: err = %v, want sentinel", conc, err)
		}
	}
}

// TestRunManyFuncFailFastSequential pins the fail-fast contract in
// its deterministic form: with Concurrency 1, an error at index 2
// means exactly indexes 0, 1, 2 were delivered, in order.
func TestRunManyFuncFailFastSequential(t *testing.T) {
	g := pathGraph(t, 20)
	roots := []int32{0, 3, 6, 9, 12, 15}
	sentinel := errors.New("boom")
	var seen []int
	err := RunMany(context.Background(), g, roots, ManyOptions{Concurrency: 1}, func(i int, _ int32, _ *Result) error {
		seen = append(seen, i)
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("delivered indexes %v, want [0 1 2]", seen)
	}
}

// TestRunManyFuncFailFastConcurrent is the regression test for the
// check-then-claim race: before the post-claim failed re-check, a
// worker could observe no failure, claim a root, and start a fresh
// traversal after a sibling had already failed the batch. With many
// cheap roots, a first-callback error must abandon almost all of them.
func TestRunManyFuncFailFastConcurrent(t *testing.T) {
	g := pathGraph(t, 64)
	roots := make([]int32, 4096)
	sentinel := errors.New("boom")
	counts := make([]atomic.Int32, len(roots))
	var delivered atomic.Int64
	err := RunMany(context.Background(), g, roots, ManyOptions{Concurrency: 8}, func(i int, _ int32, _ *Result) error {
		counts[i].Add(1)
		if delivered.Add(1) == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	for i := range counts {
		if n := counts[i].Load(); n > 1 {
			t.Errorf("index %d delivered %d times", i, n)
		}
	}
	if n := delivered.Load(); n > int64(len(roots))/8 {
		t.Errorf("%d of %d roots delivered after first-callback error; fail-fast regressed", n, len(roots))
	}
}

func TestRunManyPropagatesEngineError(t *testing.T) {
	g := pathGraph(t, 6)
	for _, conc := range []int{1, 2} {
		err := RunMany(context.Background(), g, []int32{0, 99, 3}, ManyOptions{Concurrency: conc}, func(int, int32, *Result) error { return nil })
		if err == nil {
			t.Errorf("conc=%d: out-of-range root accepted", conc)
		}
	}
}

func TestRunManyEmptyRoots(t *testing.T) {
	g := pathGraph(t, 4)
	delivered := 0
	err := RunMany(context.Background(), g, nil, ManyOptions{}, func(int, int32, *Result) error {
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("got %d results for zero roots", delivered)
	}
}

// TestRunManyOneTraversalIDPerRoot pins one traversal-ID draw per
// root: the dispatcher draws the root's ID and the engine takes it
// from the wrapper instead of drawing its own. A sequential batch
// therefore numbers its roots consecutively, and every event of a
// root carries the root's ID.
func TestRunManyOneTraversalIDPerRoot(t *testing.T) {
	g := testRMAT(t, 9, 8, 2)
	roots := sampleRoots(t, g, 4)
	index := map[int32]uint64{}
	for i, root := range roots {
		index[root] = uint64(i)
	}
	for _, e := range []Engine{HybridEngine(64, 64, 1), NewShardedEngine(2, 64, 64)} {
		rec := &lockedRecorder{}
		first := obs.NextTraversalID() + 1
		err := RunMany(context.Background(), g, roots, ManyOptions{Engine: e, Concurrency: 1, Recorder: rec},
			func(int, int32, *Result) error { return nil })
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if next := obs.NextTraversalID(); next != first+uint64(len(roots)) {
			t.Errorf("%s: %d roots drew %d traversal IDs", e.Name(), len(roots), next-first)
		}
		for _, ev := range rec.events {
			if want := first + index[ev.Root]; ev.TraversalID != want {
				t.Fatalf("%s: %s event of root %d has ID %d, want %d", e.Name(), ev.Kind, ev.Root, ev.TraversalID, want)
			}
		}
	}
}
