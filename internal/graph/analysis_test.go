package graph

import (
	"testing"
)

func TestConnectedComponents(t *testing.T) {
	// Components: {0,1,2}, {3,4}, {5}.
	g := mustBuild(t, 6, []Edge{{0, 1}, {1, 2}, {3, 4}}, BuildOptions{Symmetrize: true})
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("first component split")
	}
	if labels[3] != labels[4] {
		t.Error("second component split")
	}
	if labels[0] == labels[3] || labels[3] == labels[5] || labels[0] == labels[5] {
		t.Error("components merged")
	}
}

func TestConnectedComponentsEmpty(t *testing.T) {
	g := mustBuild(t, 0, nil, BuildOptions{})
	labels, count := g.ConnectedComponents()
	if count != 0 || len(labels) != 0 {
		t.Errorf("empty graph: %d components, %d labels", count, len(labels))
	}
}

func TestEccentricity(t *testing.T) {
	// Path 0-1-2-3-4.
	g := mustBuild(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, BuildOptions{Symmetrize: true})
	if got := g.Eccentricity(0); got != 4 {
		t.Errorf("Eccentricity(0) = %d, want 4", got)
	}
	if got := g.Eccentricity(2); got != 2 {
		t.Errorf("Eccentricity(2) = %d, want 2", got)
	}
	if got := g.Eccentricity(99); got != 0 {
		t.Errorf("out-of-range eccentricity = %d, want 0", got)
	}
}

func TestApproxDiameter(t *testing.T) {
	// Path graph: double sweep finds the true diameter even from the
	// middle.
	g := mustBuild(t, 6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, BuildOptions{Symmetrize: true})
	if got := g.ApproxDiameter(3); got != 5 {
		t.Errorf("ApproxDiameter from middle = %d, want 5", got)
	}
	// Isolated source: diameter 0.
	g2 := mustBuild(t, 3, []Edge{{1, 2}}, BuildOptions{Symmetrize: true})
	if got := g2.ApproxDiameter(0); got != 0 {
		t.Errorf("isolated source diameter = %d", got)
	}
}
