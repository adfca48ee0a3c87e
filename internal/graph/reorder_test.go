package graph

import (
	"slices"
	"testing"
)

func TestSortNeighborsByDegree(t *testing.T) {
	// Vertex 0 adjacent to 1 (deg 1), 2 (deg 3), 3 (deg 2).
	g := mustBuild(t, 6, []Edge{
		{0, 1}, {0, 2}, {0, 3},
		{2, 4}, {2, 5},
		{3, 4},
	}, BuildOptions{Symmetrize: true})
	g.SortNeighborsByDegree()
	adj := g.Neighbors(0)
	if len(adj) != 3 {
		t.Fatalf("degree changed: %v", adj)
	}
	if adj[0] != 2 || adj[1] != 3 || adj[2] != 1 {
		t.Errorf("neighbors of 0 = %v, want [2 3 1] (by descending degree)", adj)
	}
}

func TestSortNeighborsPreservesEdgeMultiset(t *testing.T) {
	g := mustBuild(t, 8, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {5, 6}}, BuildOptions{Symmetrize: true})
	before := g.Clone()
	g.SortNeighborsByDegree()
	if g.NumEdges() != before.NumEdges() {
		t.Fatal("edge count changed")
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, u := range before.Neighbors(v) {
			if !slices.Contains(g.Neighbors(v), u) {
				t.Fatalf("edge (%d,%d) lost", v, u)
			}
		}
	}
}

func TestClone(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}}, BuildOptions{Symmetrize: true})
	c := g.Clone()
	c.Adj[0] = 2 // mutate the copy
	if g.Adj[0] == 2 {
		t.Error("clone aliases original storage")
	}
}
