// Package rmat generates scale-free R-MAT graphs with the recursive
// Kronecker construction used by the Graph 500 benchmark.
//
// The paper's entire evaluation runs on these graphs (§V-A): a graph
// has 2^SCALE vertices and edgefactor*2^SCALE generated edges; each
// edge picks one of four quadrants of the adjacency matrix with
// probabilities A, B, C, D at every one of SCALE recursion levels. The
// paper fixes A=0.57, B=0.19, C=0.19, D=0.05 (the Graph 500 defaults),
// which concentrates edges on low-numbered vertices and yields the
// skewed degree distribution and small diameter that make
// direction-optimizing BFS pay off.
package rmat

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"crossbfs/internal/graph"
	"crossbfs/internal/xrand"
)

// Params describe an R-MAT graph. The zero value is invalid; start
// from DefaultParams.
type Params struct {
	Scale      int     // log2 of the number of vertices
	EdgeFactor int     // generated edges per vertex (half the average degree, Table I)
	A, B, C, D float64 // quadrant probabilities; must sum to 1
	Seed       uint64  // PRNG seed; same Params -> same graph
	// Permute relabels vertices with a random permutation after
	// generation, as Graph 500 requires, so that vertex ID carries no
	// degree information. Experiments that want the raw Kronecker
	// labels (e.g. for deterministic tiny fixtures) can disable it.
	Permute bool
}

// DefaultParams returns the paper's graph configuration at the given
// scale and edge factor: A=0.57, B=0.19, C=0.19, D=0.05, permuted.
func DefaultParams(scale, edgeFactor int) Params {
	return Params{
		Scale:      scale,
		EdgeFactor: edgeFactor,
		A:          0.57,
		B:          0.19,
		C:          0.19,
		D:          0.05,
		Seed:       1,
		Permute:    true,
	}
}

// NumVertices returns 2^Scale.
func (p Params) NumVertices() int { return 1 << uint(p.Scale) }

// NumGeneratedEdges returns EdgeFactor * 2^Scale (the number of edge
// tuples generated; the CSR has up to twice as many directed entries
// after symmetrization, fewer after dedup).
func (p Params) NumGeneratedEdges() int64 {
	return int64(p.EdgeFactor) << uint(p.Scale)
}

// maxScale is the largest Scale whose vertex ids fit in graph.Edge's
// int32 endpoints.
const maxScale = 30

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Scale < 0 || p.Scale > maxScale {
		return fmt.Errorf("rmat: scale %d out of range [0,%d]", p.Scale, maxScale)
	}
	if p.EdgeFactor < 0 {
		return errors.New("rmat: negative edge factor")
	}
	if p.A < 0 || p.B < 0 || p.C < 0 || p.D < 0 {
		return errors.New("rmat: negative quadrant probability")
	}
	// Written so that a NaN sum fails too.
	if sum := p.A + p.B + p.C + p.D; !(sum >= 0.999 && sum <= 1.001) {
		return fmt.Errorf("rmat: quadrant probabilities sum to %g, want 1", sum)
	}
	return nil
}

// Edges generates the raw edge list (before symmetrization/dedup).
//
// The output is a pure function of Params, whatever the worker count:
// edge i belongs to block i/65,536, and each block draws from its own
// xoshiro256** stream, seeded through SplitMix64 with
// Seed ^ 0x9e3779b97f4a7c15*(block+1). Each edge takes one 53-bit draw
// per level, compared in integers with the quadrant thresholds (see
// thresholds). With Permute set, the vertex permutation is drawn first,
// from its own stream, and each block relabels its edges as it writes
// them. Blocks are spread over GOMAXPROCS workers; the calling
// goroutine is one of them, so a single worker starts no goroutine.
func Edges(p Params) ([]graph.Edge, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var perm []int32
	if p.Permute {
		perm = permutation(p)
	}
	total := p.NumGeneratedEdges()
	edges := make([]graph.Edge, total)
	const blockSize = 1 << 16
	numBlocks := (total + blockSize - 1) / blockSize
	workers := int(min(int64(runtime.GOMAXPROCS(0)), max(numBlocks, 1)))

	q := thresholds(p)
	var claimed atomic.Int64
	work := func() {
		for b := claimed.Add(1) - 1; b < numBlocks; b = claimed.Add(1) - 1 {
			// Independent deterministic stream per block: block
			// boundaries, not worker scheduling, define the graph.
			start := b * blockSize
			end := min(start+blockSize, total)
			rng := xrand.NewState(p.Seed ^ (0x9e3779b97f4a7c15 * uint64(b+1)))
			q.block(edges[start:end], rng, p.Scale, perm)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return edges, nil
}

// quadrants holds the integer thresholds of one 53-bit draw x: the
// draw picks quadrant A if x < a, B if a <= x < ab, C if ab <= x < abc
// and D otherwise.
type quadrants struct{ a, ab, abc uint64 }

// thresholds converts A, A+B and A+B+C to thresholds on the 53-bit
// integer x behind a uniform float64 r = x/2^53. The division is exact
// for x < 2^53, so r < f holds exactly when x < ceil(f*2^53): the
// integer comparisons pick the quadrant that the float comparisons
// r < A, r < A+B, r < A+B+C pick, with the sums rounded as written.
func thresholds(p Params) quadrants {
	t := func(f float64) uint64 { return uint64(math.Ceil(f * (1 << 53))) }
	return quadrants{a: t(p.A), ab: t(p.A + p.B), abc: t(p.A + p.B + p.C)}
}

// block fills out with edges drawn from rng by descending scale levels
// of the recursive quadrant partition, relabelled through perm unless
// it is nil. The state stays in a local, so the loop keeps it in
// registers, and the quadrant choice is branch-free: with
// lt(t) = (x-t)>>63, which is 1 iff x < t since both are below 2^63,
// u's bit is [x >= ab] and v's bit is [x >= a] ^ [x >= ab] ^ [x >= abc].
func (q quadrants) block(out []graph.Edge, rng xrand.State, scale int, perm []int32) {
	for i := range out {
		var u, v uint64
		for range scale {
			var r uint64
			r, rng = rng.Next()
			x := r >> 11
			ltAB := (x - q.ab) >> 63
			u = u<<1 | (1 ^ ltAB)
			v = v<<1 | (1 ^ (x-q.a)>>63 ^ ltAB ^ (x-q.abc)>>63)
		}
		e := graph.Edge{From: int32(u), To: int32(v)}
		if perm != nil {
			e = graph.Edge{From: perm[u], To: perm[v]}
		}
		out[i] = e
	}
}

// permutation draws the seed-derived random permutation of the vertex
// set that Permute relabels endpoints with.
func permutation(p Params) []int32 {
	n := p.NumVertices()
	rng := xrand.New(p.Seed ^ 0xc2b2ae3d27d4eb4f)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// Generate produces the symmetrized, deduplicated CSR graph for p —
// the graph the BFS kernels traverse (Graph 500 kernel 1 semantics).
func Generate(p Params) (*graph.CSR, error) {
	edges, err := Edges(p)
	if err != nil {
		return nil, err
	}
	return graph.Build(p.NumVertices(), edges, graph.BuildOptions{Symmetrize: true})
}
