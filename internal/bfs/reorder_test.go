package bfs

import (
	"context"
	"testing"
)

// TestDegreeOrderingReducesScans checks the Chhugani-style adjacency
// reordering actually helps bottom-up: with hubs first in every list,
// early exits happen sooner, so total scans must drop on a scale-free
// graph while the traversal itself stays identical.
func TestDegreeOrderingReducesScans(t *testing.T) {
	g := testRMAT(t, 12, 16, 1)
	var src int32
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			src = int32(v)
			break
		}
	}
	base, err := TraceFrom(context.Background(), g, src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	reordered := g.Clone().SortNeighborsByDegree()
	res, err := Run(context.Background(), reordered, src, Options{Policy: AlwaysBottomUp, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(reordered, res); err != nil {
		t.Fatalf("reordered traversal invalid: %v", err)
	}
	after, err := ComputeTrace(reordered, res)
	if err != nil {
		t.Fatal(err)
	}

	// Identical traversal structure (level sets unchanged).
	if after.Reachable != base.Reachable || len(after.Steps) != len(base.Steps) {
		t.Fatalf("reordering changed the traversal: %d/%d steps, %d/%d reachable",
			len(after.Steps), len(base.Steps), after.Reachable, base.Reachable)
	}
	var baseScans, afterScans int64
	for i := range base.Steps {
		baseScans += base.Steps[i].BottomUpScans
		afterScans += after.Steps[i].BottomUpScans
		if base.Steps[i].FrontierVertices != after.Steps[i].FrontierVertices {
			t.Fatalf("step %d frontier changed", i+1)
		}
	}
	if afterScans >= baseScans {
		t.Errorf("degree ordering did not reduce scans: %d -> %d", baseScans, afterScans)
	}
	t.Logf("bottom-up scans: %d -> %d (%.1f%% reduction)",
		baseScans, afterScans, 100*(1-float64(afterScans)/float64(baseScans)))
}
