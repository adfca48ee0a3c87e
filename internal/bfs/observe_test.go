package bfs

import (
	"context"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
)

// benchRMAT and firstUsableB are the testing.TB forms of testRMAT and
// firstUsable, usable from benchmarks.
func benchRMAT(tb testing.TB, scale, ef int, seed uint64) *graph.CSR {
	tb.Helper()
	p := rmat.DefaultParams(scale, ef)
	p.Seed = seed
	g, err := rmat.Generate(p)
	if err != nil {
		tb.Fatalf("rmat.Generate: %v", err)
	}
	return g
}

func firstUsableB(tb testing.TB, g *graph.CSR) int32 {
	tb.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	tb.Fatal("graph has no non-isolated vertex")
	return 0
}

// TestRunAllocsNopRecorder extends the steady-state allocation gate to
// the telemetry seam: threading an explicit obs.Nop recorder through
// RunWithContext must stay as alloc-free as passing no recorder at
// all, at one worker and at two. This is the contract
// OBSERVABILITY.md promises — the default path pays for observability
// only when a live recorder is attached.
func TestRunAllocsNopRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on scale-12 and scale-14 graphs")
	}
	ctx := context.Background()
	for _, c := range allocCases(t) {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			opts.Recorder, opts.Label = obs.Nop, "gate"
			ws := NewWorkspace(c.g.NumVertices())
			run := func() {
				if _, err := RunWithContext(ctx, c.g, c.src, opts, ws); err != nil {
					t.Fatal(err)
				}
			}
			run() // warmup: grow queues, shards and worker starts to this graph's working set
			run()
			if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
				t.Errorf("traversal with Nop recorder allocates %.0f objects/run after warmup; want 0", allocs)
			}
		})
	}
}

// countRecorder counts events without retaining them, so benchmarks
// measure the emission path rather than slice growth.
type countRecorder struct{ n int64 }

func (c *countRecorder) Event(obs.Event) { c.n++ }

// BenchmarkRunNopRecorder and BenchmarkRunLiveRecorder bracket the
// cost of the telemetry seam on a pooled hybrid traversal: the Nop
// variants must report 0 allocs/op, and the live variant shows what a
// minimal recorder costs (event construction + interface call per
// level). BenchmarkRunNopRecorderW2 pins two workers, so its widest
// bottom-up level fans out even at GOMAXPROCS=1.
func BenchmarkRunNopRecorder(b *testing.B)   { benchRecorder(b, obs.Nop, 1) }
func BenchmarkRunNopRecorderW2(b *testing.B) { benchRecorder(b, obs.Nop, 2) }
func BenchmarkRunLiveRecorder(b *testing.B)  { benchRecorder(b, &countRecorder{}, 1) }

func benchRecorder(b *testing.B, rec obs.Recorder, workers int) {
	g := benchRMAT(b, 14, 8, 7)
	src := firstUsableB(b, g)
	opts := Options{Policy: MN{M: 64, N: 64}, Workers: workers, Recorder: rec, Label: "bench"}
	ws := NewWorkspace(g.NumVertices())
	ctx := context.Background()
	// Warmup grows the workspace queues to this graph's working set so
	// allocs/op reflects steady state, not first-run growth.
	if _, err := RunWithContext(ctx, g, src, opts, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWithContext(ctx, g, src, opts, ws); err != nil {
			b.Fatal(err)
		}
	}
}
