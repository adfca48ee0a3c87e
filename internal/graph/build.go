package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// BuildOptions control edge-list to CSR conversion.
type BuildOptions struct {
	// Symmetrize inserts the reverse of every edge so the CSR can be
	// traversed as an undirected graph. This matches Graph 500 kernel 1.
	Symmetrize bool
	// KeepSelfLoops retains (v, v) edges. Graph 500 construction drops
	// them, so the default (false) drops them too.
	KeepSelfLoops bool
	// KeepDuplicates retains parallel edges. Graph 500 construction
	// deduplicates, so the default (false) deduplicates.
	KeepDuplicates bool
}

// Work floors of the construction phases: the work each worker must
// get before a phase fans out. Timed on a 2-vCPU host with one worker
// against two over skewed random graphs of 2^14 to 2^22 edges, two
// workers won the sort from about 2^14 edges, the derived-data scan
// from 2^15 and placement from 2^18; below that, a second worker's
// start and join and, for placement, its extra count array and prefix
// pass cost more than it saves.
const (
	placeWorkerEdges    = 1 << 17 // edges counted and placed per worker
	sortWorkerEntries   = 1 << 14 // list entries plus vertices sorted per worker
	deriveWorkerEntries = 1 << 15 // list entries plus vertices scanned per worker
)

// radixMinLen is the shortest list that the radix sort takes; shorter
// lists go to slices.Sort. On R-MAT SCALE 16 and 18 at one worker,
// Build ran fastest with the cut between 32 and 128 entries, and about
// 30% slower with it at 512.
const radixMinLen = 64

// Build converts an edge list into a CSR graph with numVertices
// vertices. Vertex IDs must lie in [0, numVertices), and numVertices
// may not exceed math.MaxInt32, the int32 id range; both are checked
// before the graph is allocated.
//
// Construction runs in five phases, each over up to GOMAXPROCS workers
// and inline on the calling goroutine below its work floor:
//
//   - check: each worker range-checks a contiguous chunk of the edge
//     list and counts the entries it makes, which sizes Adj;
//   - count: each worker counts its chunk's entries per vertex;
//   - prefix: one pass over the vertices sets Offsets and each chunk's
//     first slot in every list, after the slots of the chunks before
//     it, so that placement writes every list in edge-list order with
//     no atomics;
//   - place: each worker scatters its own chunk;
//   - sort: workers take vertex ranges of about equal work, sort each
//     list (a radix sort for long lists) and, unless KeepDuplicates is
//     set, drop repeated entries; a last serial step closes the gaps
//     the dropped entries leave.
//
// The result depends only on the arguments: the same Offsets and Adj,
// byte for byte, at any worker count.
func Build(numVertices int, edges []Edge, opts BuildOptions) (*CSR, error) {
	if numVertices < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	if numVertices > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d vertices exceed the int32 vertex id range", numVertices)
	}
	// Per-chunk counts take 4 bytes a vertex while every count fits in
	// int32 (a list has at most 2|E| entries). Counting stops at 16
	// bytes a vertex across all workers: the serial builder's cursor
	// and deduplicated offsets took that much.
	var g *CSR
	var err error
	if 2*int64(len(edges)) <= math.MaxInt32 {
		g, err = place[int32](numVertices, edges, opts, 4)
	} else {
		g, err = place[int64](numVertices, edges, opts, 2)
	}
	if err != nil {
		return nil, err
	}
	g.sortLists(!opts.KeepDuplicates)
	return g, nil
}

// count is the type of a chunk's per-vertex entry counts.
type count interface{ int32 | int64 }

// place runs Build's check, count, prefix and place phases over at most
// maxWorkers workers and returns the graph with every list in
// edge-list order, unsorted.
func place[C count](numVertices int, edges []Edge, opts BuildOptions, maxWorkers int) (*CSR, error) {
	m := int64(len(edges))
	workers := workersFor(m, placeWorkerEdges, min(maxWorkers, runtime.GOMAXPROCS(0)))
	chunk := (m + int64(workers) - 1) / int64(workers)
	chunkOf := func(w int) []Edge {
		return edges[min(int64(w)*chunk, m):min(int64(w+1)*chunk, m)]
	}
	n := int32(numVertices)
	firstBad := make([]int, workers)
	entries := make([]int64, workers)
	parallelWorkers(workers, func(w int) {
		firstBad[w] = -1
		var k int64
		for i, e := range chunkOf(w) {
			if uint32(e.From) >= uint32(n) || uint32(e.To) >= uint32(n) {
				firstBad[w] = i
				return
			}
			if e.From != e.To && opts.Symmetrize {
				k += 2
			} else if e.From != e.To || opts.KeepSelfLoops {
				k++
			}
		}
		entries[w] = k
	})
	var total int64
	for w, i := range firstBad {
		if i >= 0 {
			e := chunkOf(w)[i]
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		total += entries[w]
	}
	// Adj comes first, while the only other large block alive is the
	// edge list: a collection that this allocation triggers then sizes
	// the next heap goal without the count arrays.
	adj := make([]int32, total)

	counts := make([][]C, workers)
	parallelWorkers(workers, func(w int) {
		c := make([]C, numVertices)
		counts[w] = c
		for _, e := range chunkOf(w) {
			if e.From == e.To {
				if opts.KeepSelfLoops {
					c[e.From]++
				}
				continue
			}
			c[e.From]++
			if opts.Symmetrize {
				c[e.To]++
			}
		}
	})

	// Prefix: each chunk's count for v becomes its first slot in v's
	// list, relative to Offsets[v].
	offsets := make([]int64, numVertices+1)
	var sum int64
	for v := range numVertices {
		offsets[v] = sum
		var run C
		for _, c := range counts {
			c[v], run = run, run+c[v]
		}
		sum += int64(run)
	}
	offsets[numVertices] = sum

	parallelWorkers(workers, func(w int) {
		c := counts[w]
		for _, e := range chunkOf(w) {
			if e.From == e.To && !opts.KeepSelfLoops {
				continue
			}
			adj[offsets[e.From]+int64(c[e.From])] = e.To //lint:shared-ok single writer: the prefix gives each chunk its own slots in every list
			c[e.From]++
			if opts.Symmetrize && e.From != e.To {
				adj[offsets[e.To]+int64(c[e.To])] = e.From //lint:shared-ok single writer: the prefix gives each chunk its own slots in every list
				c[e.To]++
			}
		}
	})
	return &CSR{Offsets: offsets, Adj: adj}, nil
}

// sortLists sorts every adjacency list ascending and, if dedup is set,
// drops repeated entries, compacting Adj and rewriting Offsets. Each
// worker takes a vertex range of about equal work; with dedup it
// compacts its lists to the front of its own range and rewrites their
// offsets, and a serial pass then moves each range's block down to
// close the gaps.
func (g *CSR) sortLists(dedup bool) {
	n := g.NumVertices()
	workers := workersFor(g.NumEdges()+int64(n), sortWorkerEntries, runtime.GOMAXPROCS(0))
	bounds := g.splitByWork(workers, 1)
	// starts[w] is where range w's entries begin, read before any
	// worker rewrites an offset.
	starts := make([]int64, workers+1)
	for w, v := range bounds {
		starts[w] = g.Offsets[v]
	}
	ends := make([]int64, workers)
	keyBits := uint(bits.Len(uint(max(n-1, 0))))
	adj, offsets := g.Adj, g.Offsets
	parallelWorkers(workers, func(w int) {
		var scratch []int32
		dst := starts[w]
		for v := bounds[w]; v < bounds[w+1]; v++ {
			lo, hi := offsets[v], starts[w+1]
			if v+1 < bounds[w+1] {
				hi = offsets[v+1]
			}
			list := adj[lo:hi]
			if len(list) >= radixMinLen {
				scratch = radixSort(list, scratch, keyBits)
			} else {
				slices.Sort(list)
			}
			if !dedup {
				continue
			}
			// dst <= lo, so the compaction never overwrites an entry
			// it has yet to read.
			offsets[v] = dst //lint:shared-ok single writer: v is in this worker's vertex range
			for i, x := range list {
				if i == 0 || x != list[i-1] {
					adj[dst] = x //lint:shared-ok single writer: dst stays inside this worker's entry range
					dst++
				}
			}
		}
		ends[w] = dst
	})
	if !dedup {
		return
	}
	var total int64
	for w := range workers {
		if gap := starts[w] - total; gap > 0 {
			copy(adj[total:], adj[starts[w]:ends[w]])
			for v := bounds[w]; v < bounds[w+1]; v++ {
				offsets[v] -= gap
			}
		}
		total += ends[w] - starts[w]
	}
	offsets[n] = total
	g.Adj = adj[:total]
}

// radixSort sorts list ascending by an LSD radix sort over 8-bit
// digits of its values' low keyBits bits, which must hold every value.
// It uses buf as scratch, growing it if needed, and returns it for
// reuse.
func radixSort(list, buf []int32, keyBits uint) []int32 {
	if cap(buf) < len(list) {
		buf = make([]int32, len(list))
	}
	src, dst := list, buf[:len(list)]
	for shift := uint(0); shift < keyBits; shift += 8 {
		var next [256]int
		for _, x := range src {
			next[uint32(x)>>shift&0xff]++
		}
		sum := 0
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for _, x := range src {
			d := uint32(x) >> shift & 0xff
			dst[next[d]] = x
			next[d]++
		}
		src, dst = dst, src
	}
	if (keyBits+7)/8%2 == 1 {
		copy(list, src) // an odd number of passes leaves the result in buf
	}
	return buf
}

// splitByWork returns workers+1 vertex bounds, from 0 to |V|, that
// split the vertices into ranges of about equal entries plus vertices.
// Every inner bound is a multiple of align.
func (g *CSR) splitByWork(workers, align int) []int {
	n := g.NumVertices()
	bounds := make([]int, workers+1)
	total := g.Offsets[n] + int64(n)
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		v := sort.Search(n, func(v int) bool { return g.Offsets[v]+int64(v) >= target })
		bounds[w] = max(bounds[w-1], v-v%align)
	}
	bounds[workers] = n
	return bounds
}

// workersFor returns how many workers a phase with the given work
// runs on: one per floor units of work, at least one and at most
// limit.
func workersFor(work, floor int64, limit int) int {
	return int(max(1, min(work/floor, int64(limit))))
}

// parallelWorkers runs fn(0), ..., fn(workers-1) concurrently and
// returns when all have returned. fn(0) runs on the calling goroutine,
// so a single worker starts no goroutine.
func parallelWorkers(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}
