package bfs

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
	"crossbfs/internal/xrand"
)

func TestTracePath(t *testing.T) {
	g := pathGraph(t, 4) // 0-1-2-3
	tr, err := TraceFrom(context.Background(), g, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 4 || tr.Depth() != 3 {
		t.Fatalf("steps %d depth %d, want 4/3", len(tr.Steps), tr.Depth())
	}
	// Step 1: frontier {0} (deg 1), discovers {1}.
	s := tr.Steps[0]
	if s.FrontierVertices != 1 || s.FrontierEdges != 1 || s.Discovered != 1 {
		t.Errorf("step 1 = %+v", s)
	}
	if s.UnvisitedVertices != 3 {
		t.Errorf("step 1 unvisited = %d, want 3", s.UnvisitedVertices)
	}
	// Bottom-up at step 1: vertex 1 scans {0,2}, 0 is frontier -> 1 scan.
	// Vertex 2 scans {1,3}: 2 scans, no hit. Vertex 3 scans {2}: 1 scan.
	if s.BottomUpScans != 1+2+1 {
		t.Errorf("step 1 BU scans = %d, want 4", s.BottomUpScans)
	}
	// Step 2: frontier {1} (deg 2), discovers {2}.
	s = tr.Steps[1]
	if s.FrontierVertices != 1 || s.FrontierEdges != 2 || s.Discovered != 1 {
		t.Errorf("step 2 = %+v", s)
	}
	// Final step: frontier {3}, discovers nothing.
	s = tr.Steps[3]
	if s.FrontierVertices != 1 || s.Discovered != 0 || s.UnvisitedVertices != 0 {
		t.Errorf("final step = %+v", s)
	}
}

func TestTraceStar(t *testing.T) {
	g := starGraph(t, 10)
	tr, err := TraceFrom(context.Background(), g, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(tr.Steps))
	}
	s := tr.Steps[0]
	if s.FrontierEdges != 9 || s.Discovered != 9 || s.MaxFrontierDegree != 9 {
		t.Errorf("star step 1 = %+v", s)
	}
	// Bottom-up step 1: each leaf scans its single neighbor (the hub,
	// in the frontier): 9 scans, max scan 1.
	if s.BottomUpScans != 9 || s.MaxScan != 1 {
		t.Errorf("star BU scans = %d max %d, want 9/1", s.BottomUpScans, s.MaxScan)
	}
}

func TestTraceInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		p := rmat.DefaultParams(7+rng.Intn(3), 4+rng.Intn(12))
		p.Seed = seed
		g, err := rmat.Generate(p)
		if err != nil {
			return false
		}
		src := int32(rng.Intn(g.NumVertices()))
		tr, err := TraceFrom(context.Background(), g, src, nil, nil)
		if err != nil {
			return false
		}
		// (1) Frontier vertex counts over all steps = reachable count.
		var frontierSum, discoveredSum int64
		for _, s := range tr.Steps {
			frontierSum += s.FrontierVertices
			discoveredSum += s.Discovered
		}
		if frontierSum != tr.Reachable || discoveredSum != tr.Reachable-1 {
			return false
		}
		// (2) Frontier edges over all steps = edges visited (each
		// reachable vertex's degree counted at its own level).
		var edgeSum int64
		for _, s := range tr.Steps {
			edgeSum += s.FrontierEdges
		}
		if edgeSum != tr.EdgesVisited {
			return false
		}
		// (3) Per step: scans bounded by unvisited edges; discovered
		// vertices each scanned at least once; unvisited monotone.
		prevUnvisited := tr.NumVertices
		for _, s := range tr.Steps {
			if s.BottomUpScans > s.UnvisitedEdges {
				return false
			}
			if s.Discovered > 0 && s.BottomUpScans < s.Discovered {
				return false
			}
			if s.UnvisitedVertices > prevUnvisited {
				return false
			}
			if s.MaxScan > s.BottomUpScans {
				return false
			}
			if s.FrontierVertices > 0 && s.MaxFrontierDegree > s.FrontierEdges {
				return false
			}
			prevUnvisited = s.UnvisitedVertices
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTraceMatchesKernelScans ties the live bottom-up scan counts to
// two recounts. On R-MAT the kernel probes each vertex's hub before
// it scans, so StepScans must equal hubScans' probe-plus-scan recount.
// On a ring no vertex has a hub and the kernel scans as the paper's
// does, so StepScans must equal the analytical BottomUpScans that
// ComputeTrace derives and archsim prices: the key soundness check of
// the replay approach, at every worker count.
func TestTraceMatchesKernelScans(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		p := rmat.DefaultParams(9, 8)
		p.Seed = seed
		g, err := rmat.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		var src int32
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(int32(v)) > 0 {
				src = int32(v)
				break
			}
		}
		r, err := Run(context.Background(), g, src, Options{Policy: AlwaysBottomUp, Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkScans(t, fmt.Sprintf("seed %d", seed), g, r)
	}

	g := ringGraph(t, buGrain+70)
	for _, workers := range []int{1, 2, 4} {
		r, err := Run(context.Background(), g, 5, Options{Policy: AlwaysBottomUp, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ComputeTrace(g, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Steps) != len(r.StepScans) {
			t.Fatalf("ring/%d workers: %d trace steps vs %d kernel steps", workers, len(tr.Steps), len(r.StepScans))
		}
		for i, s := range tr.Steps {
			if s.BottomUpScans != r.StepScans[i] {
				t.Errorf("ring/%d workers: step %d: trace predicts %d scans, kernel did %d",
					workers, i+1, s.BottomUpScans, r.StepScans[i])
			}
		}
	}
}

// TestTraceDirectionIndependent: traces computed from different
// traversal strategies of the same (graph, source) must be identical —
// the property that justifies pricing any policy from one trace.
func TestTraceDirectionIndependent(t *testing.T) {
	g := testRMAT(t, 9, 16, 4)
	src := int32(5)
	serial, err := SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := Run(context.Background(), g, src, Options{Policy: AlwaysBottomUp, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Run(context.Background(), g, src, Options{Policy: MN{M: 64, N: 64}, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ComputeTrace(g, serial)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"bottomup": bu, "hybrid": hy} {
		tr, err := ComputeTrace(g, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Steps) != len(base.Steps) {
			t.Fatalf("%s: step count %d vs %d", name, len(tr.Steps), len(base.Steps))
		}
		for i := range tr.Steps {
			if tr.Steps[i] != base.Steps[i] {
				t.Errorf("%s: step %d differs:\n  %+v\nvs %+v", name, i+1, tr.Steps[i], base.Steps[i])
			}
		}
	}
}

func TestTraceRejectsInvalidResult(t *testing.T) {
	g := pathGraph(t, 4)
	r, err := SerialEngine().Run(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Level[3]++ // corrupt
	if _, err := ComputeTrace(g, r); err == nil {
		t.Error("trace of corrupted result succeeded")
	}
}

func TestTraceIsolatedSource(t *testing.T) {
	g := mustBuild(t, 5, []graph.Edge{{From: 1, To: 2}})
	tr, err := TraceFrom(context.Background(), g, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 1 || tr.Reachable != 1 {
		t.Errorf("isolated source trace: %d steps, %d reachable", len(tr.Steps), tr.Reachable)
	}
	s := tr.Steps[0]
	if s.FrontierVertices != 1 || s.Discovered != 0 {
		t.Errorf("isolated step = %+v", s)
	}
	// Unvisited vertices include the other component.
	if s.UnvisitedVertices != 4 {
		t.Errorf("unvisited = %d, want 4", s.UnvisitedVertices)
	}
}

func TestMeanScan(t *testing.T) {
	s := LevelStats{BottomUpScans: 30, UnvisitedVertices: 10}
	if got := s.MeanScan(); got != 3 {
		t.Errorf("MeanScan = %g, want 3", got)
	}
	empty := LevelStats{}
	if got := empty.MeanScan(); got != 0 {
		t.Errorf("MeanScan of empty = %g, want 0", got)
	}
}
