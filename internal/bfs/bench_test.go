package bfs

import (
	"context"
	"fmt"
	"math/rand"
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

	pointOnce  sync.Once
	pointG     *graph.CSR
	pointPairs [][2]int32
	pointErr   error
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
		r, err := SerialEngine().Run(g, src, nil)
		benchTEPS(b, r, err)
	}
}

func BenchmarkTopDownSerialKernels(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), g, src, Options{Policy: AlwaysTopDown, Workers: 1}, nil)
		benchTEPS(b, r, err)
	}
}

func BenchmarkTopDownParallel(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), g, src, Options{Policy: AlwaysTopDown}, nil)
		benchTEPS(b, r, err)
	}
}

func BenchmarkBottomUp(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), g, src, Options{Policy: AlwaysBottomUp}, nil)
		benchTEPS(b, r, err)
	}
}

func BenchmarkHybrid(b *testing.B) {
	g, src := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), g, src, Options{Policy: MN{M: 64, N: 64}}, nil)
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
		r, err := Run(context.Background(), g, src, opts, ws)
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
		err := RunMany(context.Background(), g, roots, opts, func(_ int, _ int32, r *Result) error {
			edges.Add(r.TraversedEdges)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(edges.Load() * 4)
}

// pointQueryDraw builds BenchmarkPointQuery's graph and its fixed
// draw of 4,096 source-target pairs once.
func pointQueryDraw(tb testing.TB) (*graph.CSR, [][2]int32) {
	tb.Helper()
	pointOnce.Do(func() {
		pointG, pointErr = rmat.Generate(rmat.DefaultParams(16, 16))
		if pointErr != nil {
			return
		}
		n := pointG.NumVertices()
		rng := rand.New(rand.NewSource(1))
		var roots []int32
		for len(roots) < 128 {
			if v := int32(rng.Intn(n)); pointG.Degree(v) > 0 {
				roots = append(roots, v)
			}
		}
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(roots)-1))
		pointPairs = make([][2]int32, 4096)
		for i := range pointPairs {
			pointPairs[i] = [2]int32{roots[zipf.Uint64()], int32(rng.Intn(n))}
		}
	})
	if pointErr != nil {
		tb.Fatal(pointErr)
	}
	return pointG, pointPairs
}

// BenchmarkPointQuery answers reach queries drawn as the serving
// benchmark draws them: an R-MAT SCALE 16, edge factor 16 graph built
// once, zipf-skewed sources over 128 roots with an edge, and uniform
// targets, through one reused workspace. One op is one query, and the
// i-th op answers the i-th pair of a fixed draw. bidirectional is the
// point kernel that serves reach and path; hybrid is the full
// traversal that served them before it, reading the target's level.
func BenchmarkPointQuery(b *testing.B) {
	g, pairs := pointQueryDraw(b)
	ws := NewWorkspace(g.NumVertices())
	ctx := context.Background()
	b.Run("bidirectional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, _, err := PointQuery(ctx, g, p[0], p[1], ws, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		e := DefaultEngine()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			r, err := e.RunObserved(ctx, g, p[0], ws, nil)
			if err != nil {
				b.Fatal(err)
			}
			_ = r.Level[p[1]]
		}
	})
}

func BenchmarkComputeTrace(b *testing.B) {
	g, src := benchGraph(b)
	r, err := SerialEngine().Run(g, src, nil)
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
	r, err := SerialEngine().Run(g, src, nil)
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
// computation crossover the sharded experiment tables plot. Each
// scale also runs the 1-worker hybrid on the same graph and source
// (hybrid-w1): one rank exchanges nothing, so ranks1 against
// hybrid-w1 is the sharded engine's kernel overhead.
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
	type row struct {
		name string
		eng  Engine
	}
	var rows []row
	for _, ranks := range []int{1, 2, 4, 8} {
		rows = append(rows, row{fmt.Sprintf("ranks%d", ranks), NewShardedEngine(ranks, DefaultM, DefaultN)})
	}
	rows = append(rows, row{"hybrid-w1", HybridEngine(DefaultM, DefaultN, 1)})
	for _, scale := range []int{12, 14} {
		for _, row := range rows {
			g, src := graphs[scale], sources[scale]
			ws := NewWorkspace(g.NumVertices())
			b.Run(fmt.Sprintf("scale%d/%s", scale, row.name), func(b *testing.B) {
				var edges, bytes int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := row.eng.RunObserved(context.Background(), g, src, ws, nil)
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
