package bfs

import (
	"context"
	"testing"

	"crossbfs/internal/graph"
)

// firstUsable returns the first non-isolated vertex — the smallest
// valid BFS source for graphs whose vertex 0 may be isolated.
func firstUsable(t *testing.T, g *graph.CSR) int32 {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	t.Fatal("graph has no non-isolated vertex")
	return 0
}

// exactSame is the strict, field-by-field form of sameTraversal, for
// deterministic (Workers: 1) engines where even Parent tie-breaks and
// the per-step logs must match.
func exactSame(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("%s: Source = %d, want %d", name, got.Source, want.Source)
	}
	if len(got.Parent) != len(want.Parent) || len(got.Level) != len(want.Level) {
		t.Fatalf("%s: map sizes differ: parent %d/%d level %d/%d",
			name, len(got.Parent), len(want.Parent), len(got.Level), len(want.Level))
	}
	for v := range want.Parent {
		if got.Parent[v] != want.Parent[v] {
			t.Fatalf("%s: Parent[%d] = %d, want %d", name, v, got.Parent[v], want.Parent[v])
		}
		if got.Level[v] != want.Level[v] {
			t.Fatalf("%s: Level[%d] = %d, want %d", name, v, got.Level[v], want.Level[v])
		}
	}
	if len(got.Directions) != len(want.Directions) {
		t.Fatalf("%s: %d direction entries, want %d", name, len(got.Directions), len(want.Directions))
	}
	for i := range want.Directions {
		if got.Directions[i] != want.Directions[i] {
			t.Fatalf("%s: Directions[%d] = %s, want %s", name, i, got.Directions[i], want.Directions[i])
		}
	}
	if len(got.StepScans) != len(want.StepScans) {
		t.Fatalf("%s: %d step-scan entries, want %d", name, len(got.StepScans), len(want.StepScans))
	}
	for i := range want.StepScans {
		if got.StepScans[i] != want.StepScans[i] {
			t.Fatalf("%s: StepScans[%d] = %d, want %d", name, i, got.StepScans[i], want.StepScans[i])
		}
	}
	if got.VisitedCount != want.VisitedCount {
		t.Fatalf("%s: VisitedCount = %d, want %d", name, got.VisitedCount, want.VisitedCount)
	}
	if got.TraversedEdges != want.TraversedEdges {
		t.Fatalf("%s: TraversedEdges = %d, want %d", name, got.TraversedEdges, want.TraversedEdges)
	}
}

// TestWorkspaceReuseMatchesFresh drives one workspace through a
// big -> small -> big graph sequence under every deterministic engine
// and demands bit-identical agreement with fresh-workspace runs. Any
// state leaking across traversals — a stale parent, an unshrunk level
// map, an uncleaned bitmap word, a leftover Directions entry — shows
// up as a field mismatch.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	big := testRMAT(t, 11, 8, 3)
	small := mustBuild(t, 40, []graph.Edge{
		// Two components plus isolated tail vertices: unreachable slots
		// are exactly where stale state from the big graph would leak.
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3},
		{From: 10, To: 11}, {From: 11, To: 12},
	})
	engines := []Engine{
		SerialEngine(),
		TopDownEngine(1),
		BottomUpEngine(1),
		HybridEngine(64, 64, 1),
		beamerEngine(1),
		hongEngine(1),
	}
	runs := []struct {
		name string
		g    *graph.CSR
		src  int32
	}{
		{"big", big, firstUsable(t, big)},
		{"small", small, 0},
		{"big-again", big, firstUsable(t, big)},
	}
	for _, e := range engines {
		ws := NewWorkspace(16) // deliberately undersized: ensure() must grow it
		for _, rn := range runs {
			got, err := e.Run(rn.g, rn.src, ws)
			if err != nil {
				t.Fatalf("%s/%s: reused ws: %v", e.Name(), rn.name, err)
			}
			want, err := e.Run(rn.g, rn.src, nil)
			if err != nil {
				t.Fatalf("%s/%s: fresh ws: %v", e.Name(), rn.name, err)
			}
			exactSame(t, e.Name()+"/"+rn.name, want, got)
			if err := Validate(rn.g, got); err != nil {
				t.Fatalf("%s/%s: validate: %v", e.Name(), rn.name, err)
			}
		}
	}
}

// TestPoolRecycledWorkspaceNoLeak proves the pool-hygiene contract:
// a workspace that went through Put/Get carries nothing observable
// from its previous traversal.
func TestPoolRecycledWorkspaceNoLeak(t *testing.T) {
	big := testRMAT(t, 10, 8, 5)
	small := pathGraph(t, 9)
	pool := &WorkspacePool{}
	e := HybridEngine(64, 64, 1)

	ws := pool.Get(big.NumVertices())
	if _, err := e.Run(big, firstUsable(t, big), ws); err != nil {
		t.Fatal(err)
	}
	pool.Put(ws)

	// sync.Pool gives no recycling guarantee, so force the interesting
	// case too: reuse the very same workspace object directly.
	for i, ws2 := range []*Workspace{pool.Get(small.NumVertices()), ws} {
		got, err := e.Run(small, 0, ws2)
		if err != nil {
			t.Fatalf("recycled run %d: %v", i, err)
		}
		want, err := e.Run(small, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		exactSame(t, "recycled", want, got)
		if len(got.Parent) != small.NumVertices() {
			t.Fatalf("recycled result spans %d vertices, want %d", len(got.Parent), small.NumVertices())
		}
	}
}

func TestWorkspacePoolSizeClasses(t *testing.T) {
	pool := &WorkspacePool{}
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 1000, 1 << 14} {
		ws := pool.Get(n)
		if ws.Capacity() < n {
			t.Fatalf("Get(%d) returned capacity %d", n, ws.Capacity())
		}
		pool.Put(ws)
	}
}

// allocCase is one steady-state allocation gate: a traversal through a
// reused workspace that must allocate nothing after warmup. fansOut
// marks the cases that must reach a multi-worker fan-out, so the gate
// covers the fan-out and not only the inline levels.
type allocCase struct {
	name    string
	g       *graph.CSR
	src     int32
	opts    Options
	fansOut bool
}

// allocCases returns the gates' traversals: the SCALE-12 R-MAT hybrid
// at one worker and at an explicit two (testing.AllocsPerRun pins
// GOMAXPROCS to 1, but explicit workers still fan out), the 128×128
// lattice's long-diameter hybrid at two, and two traversals whose
// bottom-up levels do fan out at two: the lattice under pure
// bottom-up, and a SCALE-14 R-MAT hybrid.
func allocCases(t *testing.T) []allocCase {
	t.Helper()
	rmat12 := testRMAT(t, 12, 8, 7)
	rmat14 := testRMAT(t, 14, 8, 7)
	lattice := latticeGraph(t, 128)
	hybrid := MN{M: DefaultM, N: DefaultN}
	return []allocCase{
		{"rmat12/w1", rmat12, firstUsable(t, rmat12), Options{Policy: hybrid, Workers: 1}, false},
		{"rmat12/w2", rmat12, firstUsable(t, rmat12), Options{Policy: hybrid, Workers: 2}, false},
		{"lattice128/w2", lattice, 0, Options{Policy: hybrid, Workers: 2}, false},
		{"lattice128-bottomup/w2", lattice, 0, Options{Policy: AlwaysBottomUp, Workers: 2}, true},
		{"rmat14/w2", rmat14, firstUsable(t, rmat14), Options{Policy: hybrid, Workers: 2}, true},
	}
}

// checkFansOut fails the test unless a traversal of c fans some level
// out over more than one worker.
func checkFansOut(t *testing.T, c allocCase) {
	t.Helper()
	widest := int32(0)
	for _, e := range levelEvents(t, c.g, c.src, c.opts) {
		widest = max(widest, e.Workers)
	}
	if widest < 2 {
		t.Fatalf("%s: no level fanned out (widest ran %d worker); the gate would not cover the fan-out", c.name, widest)
	}
}

// TestRunAllocsSteadyState is the acceptance gate for pooling: after
// warmup, a traversal through a reused workspace must allocate
// nothing, fan-outs included, against at least 5 objects on the
// fresh-buffers path.
func TestRunAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on scale-12 and scale-14 graphs")
	}
	for _, c := range allocCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if c.fansOut {
				checkFansOut(t, c)
			}
			ws := NewWorkspace(c.g.NumVertices())
			run := func() {
				if _, err := Run(context.Background(), c.g, c.src, c.opts, ws); err != nil {
					t.Fatal(err)
				}
			}
			run() // warmup: grow queues, shards and worker starts to this graph's working set
			run()

			pooled := testing.AllocsPerRun(5, run)
			unpooled := testing.AllocsPerRun(5, func() {
				if _, err := Run(context.Background(), c.g, c.src, c.opts, nil); err != nil {
					t.Fatal(err)
				}
			})
			if unpooled < 5 {
				t.Fatalf("unpooled baseline allocates only %.0f objects/run; measurement is broken", unpooled)
			}
			if pooled != 0 {
				t.Errorf("pooled traversal allocates %.0f objects/run after warmup (%.0f unpooled); want 0",
					pooled, unpooled)
			}
		})
	}
}
