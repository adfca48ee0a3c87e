package bfs

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolveWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name                 string
		requested, workItems int
		want                 int
	}{
		{"zero means automatic", 0, 1 << 20, maxprocs},
		{"negative means automatic", -3, 1 << 20, maxprocs},
		{"explicit request honored", 3, 1 << 20, 3},
		{"capped by work items", 8, 2, 2},
		{"no work still yields one worker", 4, 0, 1},
		{"negative work still yields one worker", 4, -1, 1},
		{"automatic capped by work items", 0, 1, 1},
		{"single item single worker", 1, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := resolveWorkers(tc.requested, tc.workItems); got != tc.want {
				t.Errorf("resolveWorkers(%d, %d) = %d, want %d",
					tc.requested, tc.workItems, got, tc.want)
			}
		})
	}
}

// coverageOf runs parallelGrains and returns how many times each index
// in [0, n) was covered, plus the number of callback invocations.
func coverageOf(n, grain, workers int) (counts []int32, calls int64) {
	counts = make([]int32, max(n, 0))
	var callCount atomic.Int64
	new(fanout).parallelGrains(context.Background(), n, grain, workers, func(_ *levelArgs, worker, start, end int) {
		callCount.Add(1)
		for i := start; i < end; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	return counts, callCount.Load()
}

func TestParallelGrainsEdgeCases(t *testing.T) {
	cases := []struct {
		name              string
		n, grain, workers int
	}{
		{"empty range", 0, 4, 4},
		{"negative range", -5, 4, 4},
		{"grain larger than n", 3, 100, 4},
		{"workers larger than n", 4, 1, 64},
		{"grain zero normalized to one", 7, 0, 3},
		{"grain negative normalized to one", 7, -2, 3},
		{"single worker fast path", 100, 8, 1},
		{"automatic workers", 257, 16, 0},
		{"uneven tail block", 10, 3, 2},
		{"n equals grain", 8, 8, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts, calls := coverageOf(tc.n, tc.grain, tc.workers)
			if tc.n <= 0 {
				if calls != 0 {
					t.Fatalf("fn called %d times on n=%d, want 0", calls, tc.n)
				}
				return
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("index %d covered %d times, want exactly once", i, c)
				}
			}
		})
	}
}

func TestParallelGrainsSingleWorkerInOrder(t *testing.T) {
	// The single-worker fast path spawns no goroutines but still walks
	// the range grain by grain — each grain boundary is a cancellation
	// point — in ascending order on worker 0.
	var calls []([3]int)
	if err := new(fanout).parallelGrains(context.Background(), 50, 8, 1, func(_ *levelArgs, worker, start, end int) {
		calls = append(calls, [3]int{worker, start, end})
	}); err != nil {
		t.Fatal(err)
	}
	want := [][3]int{{0, 0, 8}, {0, 8, 16}, {0, 16, 24}, {0, 24, 32}, {0, 32, 40}, {0, 40, 48}, {0, 48, 50}}
	if len(calls) != len(want) {
		t.Fatalf("single-worker calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %v, want %v", i, calls[i], want[i])
		}
	}
}

func TestParallelGrainsWorkerIDsInRange(t *testing.T) {
	// Worker IDs index per-worker shards in the kernels, so they must
	// stay within [0, effective workers).
	const n, grain, workers = 1000, 7, 5
	var bad atomic.Int32
	new(fanout).parallelGrains(context.Background(), n, grain, workers, func(_ *levelArgs, worker, start, end int) {
		if worker < 0 || worker >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Errorf("%d callbacks saw an out-of-range worker ID", bad.Load())
	}
}

// TestParallelGrainsSharedCounterStress is the satellite's
// race-detector stress test: many workers hammering one shared atomic
// counter plus disjoint per-index writes. Under -race this exercises
// the claim loop (cursor.Add) and proves the grain ranges never
// overlap; without -race it still verifies the total.
func TestParallelGrainsSharedCounterStress(t *testing.T) {
	const n = 100000
	for _, workers := range []int{2, 4, 8, 0} {
		var shared atomic.Int64
		touched := make([]int32, n)
		var mu sync.Mutex
		order := 0
		new(fanout).parallelGrains(context.Background(), n, 64, workers, func(_ *levelArgs, worker, start, end int) {
			shared.Add(int64(end - start))
			for i := start; i < end; i++ {
				touched[i]++ // safe without atomics iff grains are disjoint
			}
			mu.Lock()
			order++ // intentionally contended: stresses the detector
			mu.Unlock()
		})
		if shared.Load() != n {
			t.Errorf("workers=%d: shared counter %d, want %d", workers, shared.Load(), n)
		}
		for i, c := range touched {
			if c != 1 {
				t.Fatalf("workers=%d: index %d written %d times", workers, i, c)
			}
		}
	}
}
