package bfs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
)

var (
	benchOnce sync.Once
	benchG    *graph.CSR
	benchSrc  int32
	benchErr  error
)

func benchGraph(b *testing.B) (*graph.CSR, int32) {
	b.Helper()
	benchOnce.Do(func() {
		benchG, benchErr = rmat.Generate(rmat.DefaultParams(15, 16))
		if benchErr != nil {
			return
		}
		for v := 0; v < benchG.NumVertices(); v++ {
			if benchG.Degree(int32(v)) > 0 {
				benchSrc = int32(v)
				return
			}
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchG, benchSrc
}

func benchTEPS(b *testing.B, r *Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(r.TraversedEdges * 4) // adjacency bytes touched
}

func BenchmarkSerial(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Serial(g, src)
		benchTEPS(b, r, err)
	}
}

func BenchmarkTopDownSerialKernels(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunTopDown(g, src, 1)
		benchTEPS(b, r, err)
	}
}

func BenchmarkTopDownParallel(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunTopDown(g, src, 0)
		benchTEPS(b, r, err)
	}
}

func BenchmarkBottomUp(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunBottomUp(g, src, 0)
		benchTEPS(b, r, err)
	}
}

func BenchmarkHybrid(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Hybrid(g, src, 64, 64, 0)
		benchTEPS(b, r, err)
	}
}

// BenchmarkRunReuseWorkspace is BenchmarkHybrid through a caller-held
// workspace — the steady-state pooled path. allocs/op here vs
// BenchmarkHybrid is the pooling win the issue's acceptance gate
// measures.
func BenchmarkRunReuseWorkspace(b *testing.B) {
	g, src := benchGraph(b)
	ws := NewWorkspace(g.NumVertices())
	opts := Options{Policy: MN{M: 64, N: 64}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunWith(g, src, opts, ws)
		benchTEPS(b, r, err)
	}
}

// BenchmarkRunMany64Roots measures the batched multi-root path: 64
// search keys (the Graph 500 default) through pooled workspaces with
// concurrent roots. BenchmarkRunMany64RootsW2 runs each traversal at
// two workers, so its big levels fan out even at GOMAXPROCS=1.
func BenchmarkRunMany64Roots(b *testing.B) { benchRunMany64(b, ManyOptions{}) }
func BenchmarkRunMany64RootsW2(b *testing.B) {
	benchRunMany64(b, ManyOptions{Engine: HybridEngine(DefaultM, DefaultN, 2)})
}

func benchRunMany64(b *testing.B, opts ManyOptions) {
	g, _ := benchGraph(b)
	var roots []int32
	stride := g.NumVertices()/64 + 1
	for v := 0; v < g.NumVertices() && len(roots) < 64; v += stride {
		for u := v; u < g.NumVertices(); u++ {
			if g.Degree(int32(u)) > 0 {
				roots = append(roots, int32(u))
				break
			}
		}
	}
	if len(roots) != 64 {
		b.Fatalf("sampled %d roots, want 64", len(roots))
	}
	var edges atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edges.Store(0)
		err := RunManyFunc(g, roots, opts, func(_ int, _ int32, r *Result) error {
			edges.Add(r.TraversedEdges)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(edges.Load() * 4)
}

func BenchmarkComputeTrace(b *testing.B) {
	g, src := benchGraph(b)
	r, err := Serial(g, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeTrace(g, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	g, src := benchGraph(b)
	r, err := Serial(g, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(g, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedScales sweeps the partitioned engine across rank
// counts and graph scales. Besides wall time it reports MTEPS and the
// per-traversal exchange payload (compressed frontier deltas plus
// ghost-claim scatter) — the two axes of the communication-vs-
// computation crossover the sharded experiment tables plot.
func BenchmarkShardedScales(b *testing.B) {
	graphs := map[int]*graph.CSR{}
	sources := map[int]int32{}
	for _, scale := range []int{12, 14} {
		g, err := rmat.Generate(rmat.DefaultParams(scale, 16))
		if err != nil {
			b.Fatal(err)
		}
		graphs[scale] = g
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(int32(v)) > 0 {
				sources[scale] = int32(v)
				break
			}
		}
	}
	for _, scale := range []int{12, 14} {
		for _, ranks := range []int{1, 2, 4, 8} {
			g, src := graphs[scale], sources[scale]
			eng := NewShardedEngine(ranks, DefaultM, DefaultN)
			ws := NewWorkspace(g.NumVertices())
			b.Run(fmt.Sprintf("scale%d/ranks%d", scale, ranks), func(b *testing.B) {
				var edges, bytes int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := eng.RunContext(context.Background(), g, src, ws)
					if err != nil {
						b.Fatal(err)
					}
					edges += r.TraversedEdges
					bytes = 0
					for _, ex := range r.Exchanges {
						bytes += ex.TotalBytes()
					}
				}
				b.StopTimer()
				mteps := float64(edges) / 1e6 / b.Elapsed().Seconds()
				b.ReportMetric(mteps, "MTEPS")
				b.ReportMetric(float64(bytes), "exchanged-B/op")
			})
		}
	}
}
