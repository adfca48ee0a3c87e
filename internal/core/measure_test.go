package core

import (
	"testing"

	"crossbfs/internal/bfs"
)

func TestMeasureHybrid(t *testing.T) {
	g, src := testGraph(t, 12, 16, 1)
	res, timing, err := Measure(g, src, bfs.MN{M: 64, N: 64}, "hybrid", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bfs.Validate(g, res); err != nil {
		t.Fatalf("measured traversal invalid: %v", err)
	}
	if timing.Total <= 0 {
		t.Error("non-positive wall time")
	}
	if timing.TEPS() <= 0 {
		t.Error("non-positive TEPS")
	}
	if len(timing.StepWall) != res.NumLevels() {
		t.Errorf("%d step timings for %d levels", len(timing.StepWall), res.NumLevels())
	}
	var sum int64
	for i, d := range timing.StepWall {
		if d < 0 {
			t.Errorf("step %d wall time negative", i+1)
		}
		sum += int64(d)
	}
	if sum > int64(timing.Total) {
		t.Errorf("step times sum %d beyond total %d", sum, timing.Total)
	}
	if timing.Policy != "hybrid" {
		t.Errorf("policy name %q", timing.Policy)
	}
}

func TestMeasureNilPolicy(t *testing.T) {
	g, src := testGraph(t, 8, 8, 1)
	if _, _, err := Measure(g, src, nil, "x", 0, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestMeasureMatchesSerialLevels(t *testing.T) {
	g, src := testGraph(t, 10, 8, 2)
	want, err := bfs.SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Measure(g, src, bfs.AlwaysTopDown, "td", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Level {
		if want.Level[v] != res.Level[v] {
			t.Fatalf("measured traversal wrong at vertex %d", v)
		}
	}
}
