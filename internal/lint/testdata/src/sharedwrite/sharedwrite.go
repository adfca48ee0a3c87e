// Package sharedwrite is the golden test for the sharedwrite
// analyzer: BFS-kernel-shaped goroutine closures writing to captured
// containers, with and without a visible safety discipline.
package sharedwrite

import "sync"

// bitmap mimics the repo's claim bitmap.
type bitmap struct{ words []uint64 }

func (b *bitmap) SetAtomic(i int) bool { return true }
func (b *bitmap) Get(i int) bool       { return false }

// parallelGrains mimics the repo's fan-out primitive: fn runs
// concurrently on worker goroutines.
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

// badParentWrite is the bug the analyzer exists for: two workers can
// claim the same vertex and race on parent[v].
func badParentWrite(parent []int32, queue []int32, visited *bitmap) {
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		for _, u := range queue[start:end] {
			v := int(u)
			if !visited.Get(v) {
				parent[v] = u // want `write to captured "parent"`
			}
		}
	})
}

// badGoClosure seeds the same race through a bare go statement, plus a
// captured-map write.
func badGoClosure(level []int32, index map[int32]int32) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		level[0] = 1        // want `write to captured "level"`
		index[7] = level[0] // want `write to captured "index"`
	}()
	wg.Wait()
}

// goodClaimGuarded is the top-down kernel idiom: only the SetAtomic
// winner writes, so the write is exempt.
func goodClaimGuarded(parent, level []int32, queue []int32, visited *bitmap) {
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		for _, u := range queue[start:end] {
			v := int(u)
			if visited.SetAtomic(v) {
				parent[v] = u
				level[v] = 1
			}
		}
	})
}

// goodWorkerShard is the per-worker shard idiom: each goroutine owns
// exactly locals[worker].
func goodWorkerShard(queue []int32) {
	locals := make([][]int32, 4)
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		local := locals[worker]
		local = append(local, queue[start:end]...)
		locals[worker] = local
	})
}

// goodAnnotated is the bottom-up kernel idiom: disjoint ranges make
// the write safe, which only a human can assert.
func goodAnnotated(parent []int32, front *bitmap) {
	parallelGrains(len(parent), 64, 4, func(worker, start, end int) {
		for v := start; v < end; v++ {
			if front.Get(v) {
				parent[v] = int32(v) //lint:shared-ok v iterates this worker's disjoint [start,end) grain
			}
		}
	})
}

// goodLocalOnly writes a slice declared inside the closure — no
// capture, no diagnostic.
func goodLocalOnly(queue []int32) {
	parallelGrains(len(queue), 64, 4, func(worker, start, end int) {
		scratch := make([]int32, 0, end-start)
		for _, u := range queue[start:end] {
			scratch = append(scratch, u)
		}
		_ = scratch
	})
}

// runManyFunc mimics the repo's batched multi-root BFS driver: fn
// runs concurrently on worker goroutines, each index delivered to
// exactly one call. Anything named like a "runMany" driver is treated
// as a parallel runner.
func runManyFunc(roots []int32, fn func(i int, root int32) error) error {
	var wg sync.WaitGroup
	for i := range roots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = fn(i, roots[i])
		}(i)
	}
	wg.Wait()
	return nil
}

// badBatchWrite races on a fixed slot from concurrent batch callbacks.
func badBatchWrite(roots []int32, out []float64) {
	_ = runManyFunc(roots, func(i int, root int32) error {
		out[0] = float64(root) // want `write to captured "out"`
		return nil
	})
}

// goodBatchIndexedWrite is the RunManyFunc consumer idiom: the write
// is indexed by the callback's own index parameter, which the driver
// hands to exactly one call — the same exemption as a worker shard.
func goodBatchIndexedWrite(roots []int32, out []float64) {
	_ = runManyFunc(roots, func(i int, root int32) error {
		out[i] = float64(root)
		return nil
	})
}

// The cases below mirror the partitioned engine's frontier exchange:
// rank goroutines scatter remote claims into an outbox matrix and
// merge peers' deltas into disjoint owned ranges.

// badGhostScatter routes each remote claim into the DESTINATION
// rank's outbox row — every rank writes every row, the classic
// exchange race. The safe form gives each sender its own row.
func badGhostScatter(outboxes [][]int32, frontier []int32, owner func(int32) int) {
	var wg sync.WaitGroup
	for r := 0; r < len(outboxes); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for _, v := range frontier {
				dst := owner(v)
				outboxes[dst] = append(outboxes[dst], v) // want `write to captured "outboxes"`
			}
		}(r)
	}
	wg.Wait()
}

// goodOutboxPublish is the sender-owns-the-row idiom the engine uses:
// rank is the closure's own parameter, so outboxes[rank] is a
// per-worker shard even though the destination varies inside the row.
func goodOutboxPublish(outboxes [][]int32, frontier []int32, owner func(int32) int) {
	var wg sync.WaitGroup
	for r := 0; r < len(outboxes); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var out []int32
			for _, v := range frontier {
				if owner(v) != rank {
					out = append(out, v)
				}
			}
			outboxes[rank] = out
		}(r)
	}
	wg.Wait()
}

// goodGhostApply is the owner-side arbitration idiom: inbound claims
// race, but only the atomic-claim winner writes the shared rows.
func goodGhostApply(parent []int32, inbox []int32, visited *bitmap) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range inbox {
			if visited.SetAtomic(int(v)) {
				parent[v] = v
			}
		}
	}()
	wg.Wait()
}

// goodOwnedRange is the 1D-partition invariant only a human can
// assert: rank boundaries are word-aligned, so every write lands in
// the writer's own disjoint [lo[rank], hi[rank]) rows.
func goodOwnedRange(parent []int32, lo, hi []int, replica *bitmap) {
	var wg sync.WaitGroup
	for r := 0; r < len(lo); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for v := lo[rank]; v < hi[rank]; v++ {
				if replica.Get(v) {
					parent[v] = int32(v) //lint:shared-ok v iterates this rank's owned [lo,hi) range; 64-aligned partition boundaries keep even the bitmap words disjoint
				}
			}
		}(r)
	}
	wg.Wait()
}

// The cases below mirror the workspace-owned fan-out: the grain
// callback captures nothing and reaches the level's state through a
// pointer parameter that every worker shares.

// levelArgs mimics the kernels' shared argument block.
type levelArgs struct {
	parent, queue []int32
	locals        [][]int32
	visited       *bitmap
}

// fanout mimics the dispatcher that owns the arguments.
type fanout struct{ args levelArgs }

func (f *fanout) parallelGrains(n, grain, workers int, fn func(a *levelArgs, worker, start, end int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			fn(&f.args, worker, 0, n)
		}(w)
	}
	wg.Wait()
}

// badArgsParentWrite is badParentWrite through the argument block.
func badArgsParentWrite(f *fanout) {
	f.parallelGrains(len(f.args.queue), 64, 4, func(a *levelArgs, worker, start, end int) {
		for _, u := range a.queue[start:end] {
			if !a.visited.Get(int(u)) {
				a.parent[u] = u // want `write through shared parameter "a"`
			}
		}
	})
}

// badArgsFixedSlot appends every worker's output to one shard.
func badArgsFixedSlot(f *fanout) {
	f.parallelGrains(len(f.args.queue), 64, 4, func(a *levelArgs, worker, start, end int) {
		a.locals[0] = append(a.locals[0], a.queue[start:end]...) // want `write through shared parameter "a"`
	})
}

// goodArgsClaimGuarded is the top-down kernel through the argument
// block: only the SetAtomic winner writes.
func goodArgsClaimGuarded(f *fanout) {
	f.parallelGrains(len(f.args.queue), 64, 4, func(a *levelArgs, worker, start, end int) {
		for _, u := range a.queue[start:end] {
			if a.visited.SetAtomic(int(u)) {
				a.parent[u] = u
			}
		}
	})
}

// goodArgsWorkerShard is the per-worker shard through the argument
// block: worker is the callback's first integer parameter.
func goodArgsWorkerShard(f *fanout) {
	f.parallelGrains(len(f.args.queue), 64, 4, func(a *levelArgs, worker, start, end int) {
		local := a.locals[worker]
		local = append(local, a.queue[start:end]...)
		a.locals[worker] = local
	})
}
