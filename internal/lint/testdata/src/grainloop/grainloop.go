// Package grainloop is the golden test for the grainloop analyzer:
// grain callbacks that accumulate into captured scalars race across
// workers.
package grainloop

import (
	"sync"
	"sync/atomic"
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

// badScalarAccumulator is the canonical loop-carried race: every
// worker bumps the same captured counter.
func badScalarAccumulator(degrees []int64) int64 {
	var total int64
	parallelGrains(len(degrees), 64, 4, func(worker, start, end int) {
		for _, d := range degrees[start:end] {
			total += d // want `grain callback writes captured scalar "total"`
		}
	})
	return total
}

// badFlagAndMax seeds a captured bool and a captured running max.
func badFlagAndMax(levels []int32) (bool, int32) {
	var sawHub bool
	var maxLevel int32
	parallelGrains(len(levels), 64, 4, func(worker, start, end int) {
		for _, l := range levels[start:end] {
			if l > 100 {
				sawHub = true // want `grain callback writes captured scalar "sawHub"`
			}
			if l > maxLevel {
				maxLevel = l // want `grain callback writes captured scalar "maxLevel"`
			}
		}
	})
	return sawHub, maxLevel
}

// badCounter seeds the ++ shape.
func badCounter(n int) int {
	count := 0
	parallelGrains(n, 64, 4, func(worker, start, end int) {
		count++ // want `grain callback writes captured scalar "count"`
	})
	return count
}

// goodAtomicAccumulator is the kernels' pattern: local accumulation,
// one atomic add per grain batch.
func goodAtomicAccumulator(degrees []int64) int64 {
	var total atomic.Int64
	parallelGrains(len(degrees), 64, 4, func(worker, start, end int) {
		var local int64
		for _, d := range degrees[start:end] {
			local += d
		}
		total.Add(local)
	})
	return total.Load()
}

// goodShardReduce accumulates per worker and reduces after the wait.
func goodShardReduce(degrees []int64) int64 {
	shards := make([]int64, 4)
	parallelGrains(len(degrees), 64, 4, func(worker, start, end int) {
		for _, d := range degrees[start:end] {
			shards[worker] += d
		}
	})
	var total int64
	for _, s := range shards {
		total += s
	}
	return total
}

// goodAnnotated documents a single-worker invocation.
func goodAnnotated(degrees []int64) int64 {
	var total int64
	parallelGrains(len(degrees), len(degrees), 1, func(worker, start, end int) {
		for _, d := range degrees[start:end] {
			total += d //lint:grain-ok workers==1 pins this callback to one goroutine
		}
	})
	return total
}

// levelArgs mimics the kernels' shared argument block: the grain
// callback captures nothing and every worker gets the same pointer.
type levelArgs struct {
	degrees []int64
	total   int64
	sum     atomic.Int64
}

func parallelGrainsArgs(a *levelArgs, n int, fn func(a *levelArgs, worker, start, end int)) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			fn(a, worker, 0, n)
		}(w)
	}
	wg.Wait()
}

// badArgsAccumulator is badScalarAccumulator through the argument
// block.
func badArgsAccumulator(a *levelArgs) {
	parallelGrainsArgs(a, len(a.degrees), func(a *levelArgs, worker, start, end int) {
		for _, d := range a.degrees[start:end] {
			a.total += d // want `grain callback writes shared scalar "total" through "a"`
		}
	})
}

// goodArgsAtomic is the kernels' pattern through the argument block.
func goodArgsAtomic(a *levelArgs) {
	parallelGrainsArgs(a, len(a.degrees), func(a *levelArgs, worker, start, end int) {
		var local int64
		for _, d := range a.degrees[start:end] {
			local += d
		}
		a.sum.Add(local)
	})
}
