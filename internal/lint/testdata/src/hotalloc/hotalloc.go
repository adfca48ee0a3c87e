// Package hotalloc is the golden test for the hotalloc analyzer: heap
// allocations, closure captures, interface boxing, defer, and fmt/log
// calls inside the hot region (grain callbacks and //lint:hot
// functions, plus everything they reach through the call graph).
package hotalloc

import (
	"fmt"
	"sync"
)

// parallelGrains mimics the repo's fan-out primitive.
func parallelGrains(n, grain, workers int, fn func(worker, start, end int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			fn(worker, 0, n)
		}(w)
	}
	wg.Wait()
}

// event mimics obs.Event: a flat value struct, stack-copied.
type event struct{ kind, step int }

func record(e event) {}

// emit has an interface parameter, so concrete arguments box.
func emit(v any) {}

// search mimics sort.Search's shape: a predicate closure per call.
func search(n int, f func(int) bool) int {
	for i := 0; i < n; i++ {
		if f(i) {
			return i
		}
	}
	return n
}

// badMakeInGrain allocates a fresh buffer per grain invocation.
func badMakeInGrain(xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		buf := make([]int64, 0, end-start) // want `hot path \(grain loop of parallelGrains\): make allocates`
		for _, x := range xs[start:end] {
			buf = append(buf, x)
		}
	})
}

// badFmtInGrain formats per element.
func badFmtInGrain(xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		for _, x := range xs[start:end] {
			_ = fmt.Sprintf("v=%d", x) // want `hot path \(grain loop of parallelGrains\): fmt.Sprintf formats and allocates`
		}
	})
}

// badClosureInGrain creates a capturing predicate per element.
func badClosureInGrain(prefix []int64, xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		_ = search(len(prefix), func(i int) bool { // want `hot path \(grain loop of parallelGrains\): closure capturing "prefix" allocates`
			return prefix[i] > int64(start)
		})
	})
}

// badDeferInGrain pays defer scheduling per callback.
func badDeferInGrain(mu *sync.Mutex, xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		mu.Lock()
		defer mu.Unlock() // want `hot path \(grain loop of parallelGrains\): defer in a hot function`
		for range xs[start:end] {
		}
	})
}

// badLiteralsInGrain allocates containers and escaping structs.
type node struct{ v int }

func badLiteralsInGrain(xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		_ = []int{worker, start, end} // want `hot path \(grain loop of parallelGrains\): slice literal heap-allocates`
		n := &node{v: worker}         // want `hot path \(grain loop of parallelGrains\): &composite literal escapes to the heap`
		_ = n
	})
}

// badBoxingInGrain stores a scalar into an interface.
func badBoxingInGrain(xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		var slot any
		slot = worker // want `hot path \(grain loop of parallelGrains\): converting int to any boxes the value`
		_ = slot
		emit(start) // want `hot path \(grain loop of parallelGrains\): converting int to any boxes the value`
	})
}

// scanChunk is hot only transitively: the grain callback calls it.
func scanChunk(xs []int64, start, end int) []int64 {
	out := make([]int64, 0, end-start) // want `hot path \(grain loop of parallelGrains\): make allocates`
	for _, x := range xs[start:end] {
		out = append(out, x)
	}
	return out
}

func badTransitive(xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		_ = scanChunk(xs, start, end)
	})
}

// hotSum is hot by annotation, not by reachability.
//
//lint:hot
func hotSum(xs []int) int {
	tmp := make([]int, len(xs)) // want `hot path \(//lint:hot hotSum\): make allocates`
	copy(tmp, xs)
	s := 0
	for _, x := range tmp {
		s += x
	}
	return s
}

// goodSuppressed shows the reasoned escape hatch: one closure and one
// buffer per grain, amortized over the whole chunk.
func goodSuppressed(prefix []int64, xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		qi := search(len(prefix), func(i int) bool { return prefix[i] > int64(start) }) //lint:alloc-ok one predicate closure per grain, amortized over the chunk
		scratch := make([]int64, 0, 8)                                                  //lint:alloc-ok per-grain scratch, not per-edge; grain size >= 64
		for _, x := range xs[start:end] {
			if int(x) > qi {
				scratch = append(scratch, x)
			}
		}
	})
}

// goodValueStruct emits a flat value struct — a stack copy, the obs
// idiom — and is deliberately not flagged.
func goodValueStruct(xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		for i := range xs[start:end] {
			record(event{kind: 1, step: start + i})
		}
	})
}

// goodPointerShaped passes pointer-shaped values through interfaces:
// no boxing allocation.
func goodPointerShaped(xs []int64) {
	parallelGrains(len(xs), 64, 4, func(worker, start, end int) {
		emit(&xs)
		m := map[int]int(nil)
		emit(m)
	})
}

// goodColdAlloc allocates outside the hot region: setup code may heap
// all it wants.
func goodColdAlloc(n int) []int64 {
	xs := make([]int64, n)
	_ = fmt.Sprintf("allocated %d", n)
	return xs
}

// The cases below mirror the partitioned engine's per-level exchange:
// delta encoders and ghost scatters run once per level per rank, inside
// the rank loop — hot by annotation, like the real kernels.

// badEncodeDelta builds a fresh payload per level instead of reusing
// the rank's pooled buffer.
//
//lint:hot
func badEncodeDelta(words []uint64) []byte {
	out := make([]byte, 0, 8*len(words)) // want `hot path \(//lint:hot badEncodeDelta\): make allocates`
	for _, w := range words {
		out = append(out, byte(w))
	}
	return out
}

// goodAppendDelta is the engine's idiom: encode into the caller's
// buffer (handed in as buf[:0]), so steady-state levels allocate
// nothing.
//
//lint:hot
func goodAppendDelta(dst []byte, words []uint64) []byte {
	for _, w := range words {
		dst = append(dst, byte(w))
	}
	return dst
}

// badScatterPairs allocates a claim pair per edge inside the grain
// loop — the exchange-path version of badLiteralsInGrain.
func badScatterPairs(frontier []int32, outboxes [][][]int32, owner func(int32) int) {
	parallelGrains(len(frontier), 64, 4, func(worker, start, end int) {
		for _, v := range frontier[start:end] {
			pair := []int32{v, v + 1} // want `hot path \(grain loop of parallelGrains\): slice literal heap-allocates`
			dst := owner(v)
			outboxes[worker][dst] = append(outboxes[worker][dst], pair...)
		}
	})
}

// goodScatterFlat appends the flat (v, u) encoding straight into the
// per-rank outbox — no per-edge temporaries; the one append that may
// grow the row is amortized and annotated.
func goodScatterFlat(frontier []int32, outboxes [][][]int32, owner func(int32) int) {
	parallelGrains(len(frontier), 64, 4, func(worker, start, end int) {
		rows := outboxes[worker]
		for _, v := range frontier[start:end] {
			dst := owner(v)
			rows[dst] = append(rows[dst], v, v+1)
		}
	})
}
