package bfs

import (
	"context"
	"fmt"
	"io"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// Recorder-overhead benches for cmd/benchreport: the same RunMany
// batch under each recorder mode, so the obs-overhead deltas (Nop vs
// Live vs Sampled vs Stream vs Ring) fall out of one snapshot. The
// custom MTEPS metric makes cross-mode throughput comparable even
// though per-op work is a whole batch, not one traversal.
func BenchmarkRunManyRecorderOverhead(b *testing.B) {
	g := benchRMAT(b, 13, 16, 7)
	roots := make([]int32, 0, 16)
	for v := int32(0); v < int32(g.NumVertices()) && len(roots) < 16; v++ {
		if g.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	modes := []struct {
		name string
		rec  func() obs.Recorder
	}{
		{"nop", func() obs.Recorder { return obs.Nop }},
		{"live", func() obs.Recorder { return &countRecorder{} }},
		{"sampled", func() obs.Recorder { return obs.NewSampler(&countRecorder{}, 8, 1) }},
		{"stream", func() obs.Recorder { return obs.NewStreamWriter(io.Discard) }},
		{"ring", func() obs.Recorder { return obs.NewRing(8, 0) }},
		{"labeled", func() obs.Recorder {
			return obs.NewRegistryRecorder(obs.NewRegistry(), "hybrid(64,64)")
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			opts := ManyOptions{
				Engine:      HybridEngine(DefaultM, DefaultN, 2),
				Concurrency: 2,
				Recorder:    mode.rec(),
			}
			var edges int64
			warm := func() {
				edges = 0
				err := RunMany(context.Background(), g, roots, opts, func(_ int, _ int32, r *Result) error {
					edges += r.TraversedEdges
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			warm() // grow pool workspaces to this graph's working set
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warm()
			}
			b.StopTimer()
			if sw, ok := opts.Recorder.(*obs.StreamWriter); ok {
				_ = sw.Close()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(edges)*float64(b.N)/secs/1e6, "MTEPS")
			}
		})
	}
}

// Per-kernel × per-scale MTEPS for the perf-regression trajectory:
// the paper's Fig. 4 / Table IV claims rest on these kernels, so
// BENCH_<n>.json tracks each one at two scales. hybrid-w2 pins two
// workers, so the levels big enough to fan out do so even at
// GOMAXPROCS=1; there it records fan-out cost and allocations, not
// speed-up. A 128×128 lattice has no isolated vertex, so
// bottomup/lattice128 records the cost of bottom-up's non-isolated
// mask where it skips nothing; hybrid/lattice128 and
// hybrid-w2/lattice128 record the long-diameter case, hundreds of
// small levels, at one worker and at two.
func BenchmarkKernelScales(b *testing.B) {
	kernels := []struct {
		name string
		eng  Engine
	}{
		{"topdown", TopDownEngine(0)},
		{"bottomup", BottomUpEngine(0)},
		{"hybrid", HybridEngine(DefaultM, DefaultN, 0)},
		{"hybrid-w2", HybridEngine(DefaultM, DefaultN, 2)},
	}
	for _, scale := range []int{12, 14} {
		g := benchRMAT(b, scale, 16, 7)
		src := firstUsableB(b, g)
		for _, k := range kernels {
			benchKernel(b, fmt.Sprintf("%s/scale%d", k.name, scale), k.eng, g, src)
		}
	}
	lattice := latticeGraph(b, 128)
	benchKernel(b, "bottomup/lattice128", BottomUpEngine(0), lattice, 0)
	benchKernel(b, "hybrid/lattice128", HybridEngine(DefaultM, DefaultN, 0), lattice, 0)
	benchKernel(b, "hybrid-w2/lattice128", HybridEngine(DefaultM, DefaultN, 2), lattice, 0)
}

// benchKernel times eng from src on g through one reused workspace.
func benchKernel(b *testing.B, name string, eng Engine, g *graph.CSR, src int32) {
	b.Run(name, func(b *testing.B) {
		ws := NewWorkspace(g.NumVertices())
		r, err := eng.Run(g, src, ws) // warmup
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(r.TraversedEdges * 4) // adjacency bytes touched; MTEPS = MB/s ÷ 4
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(g, src, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}
