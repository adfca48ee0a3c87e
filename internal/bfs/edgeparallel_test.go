package bfs

import (
	"testing"

	"crossbfs/internal/graph"
)

func TestEdgeParallelMatchesSerial(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"path":   pathGraph(t, 20),
		"star":   starGraph(t, 500), // one hub: the case this kernel exists for
		"rmat10": testRMAT(t, 10, 16, 1),
		"rmat9":  testRMAT(t, 9, 8, 4),
		// A hub with enough edges for two workers, so the hub's list is
		// split across them.
		"bigstar": starGraph(t, 3*tdWorkerEdges),
	}
	for name, g := range graphs {
		var src int32
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(int32(v)) > 0 {
				src = int32(v)
				break
			}
		}
		want, err := Serial(g, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := RunTopDownEdgeParallel(g, src, workers)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, workers, err)
			}
			sameTraversal(t, name+"/edge-parallel", want, got)
			if err := Validate(g, got); err != nil {
				t.Errorf("%s/%d workers: invalid: %v", name, workers, err)
			}
			mustInvariants(t, name+"/edge-parallel", g, got)
		}
	}
}

func TestEdgeParallelIsolatedSource(t *testing.T) {
	g := mustBuild(t, 4, []graph.Edge{{From: 1, To: 2}})
	r, err := RunTopDownEdgeParallel(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.VisitedCount != 1 {
		t.Errorf("isolated source visited %d", r.VisitedCount)
	}
}

func TestEdgeParallelBadSource(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := RunTopDownEdgeParallel(g, 9, 2); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func BenchmarkTopDownEdgeParallelStar(b *testing.B) {
	// A star is the worst case for vertex-parallel division: the hub's
	// whole list lands on one worker.
	n := 1 << 16
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{From: 0, To: int32(i)})
	}
	g, err := graph.Build(n, edges, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("vertex-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunTopDown(g, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edge-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunTopDownEdgeParallel(g, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
