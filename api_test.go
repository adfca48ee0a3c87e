package crossbfs

import (
	"path/filepath"
	"testing"

	"crossbfs/internal/tuner"
)

func TestGenerateAndBFS(t *testing.T) {
	g, err := GenerateRMAT(10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	src := firstSource(t, g)
	res, err := BFS(g, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, res); err != nil {
		t.Fatalf("hybrid result invalid: %v", err)
	}

	td, err := BFSTopDown(g, src)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := BFSBottomUp(g, src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Level {
		if td.Level[v] != res.Level[v] || bu.Level[v] != res.Level[v] {
			t.Fatalf("engines disagree at vertex %d", v)
		}
	}
}

func TestBuildGraphFacade(t *testing.T) {
	g, err := BuildGraph(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d, want 4 (symmetrized)", g.NumEdges())
	}
}

func TestSimulatePlans(t *testing.T) {
	g, err := GenerateRMAT(11, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := firstSource(t, g)
	plans := []Plan{
		NewBaseline(GPU(), TopDown),
		NewBaseline(CPU(), BottomUp),
		NewCombination(MIC(), 64, 64),
		NewCrossPlan(CPU(), GPU(), 64, 64, 64, 64),
	}
	for _, plan := range plans {
		timing, err := Simulate(g, src, plan)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name(), err)
		}
		if timing.Total <= 0 || timing.GTEPS() <= 0 {
			t.Errorf("%s: degenerate timing %+v", plan.Name(), timing)
		}
	}
}

func TestBenchmarkTEPSFacade(t *testing.T) {
	g, err := GenerateRMAT(10, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BenchmarkTEPS(g, NewCombination(CPU(), 64, 64), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumRoots != 4 || rep.GTEPS() <= 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestAdaptivePipelineFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	model, err := TrainDefaultModel(nil)
	if err != nil {
		t.Fatal(err)
	}

	params := RMATParams{Scale: 12, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 5, Permute: true}
	g, err := GenerateRMATWith(params)
	if err != nil {
		t.Fatal(err)
	}
	point := PredictSwitchPoint(model, params, g, CPU(), GPU())
	if point.M < 1 || point.N < 1 {
		t.Errorf("predicted switch point %v out of range", point)
	}
	plan, err := NewAdaptiveCrossPlan(model, params, g, CPU(), GPU())
	if err != nil {
		t.Fatal(err)
	}
	timing, err := Simulate(g, firstSource(t, g), plan)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Total <= 0 {
		t.Error("adaptive plan produced degenerate timing")
	}
	if _, err := NewAdaptiveCrossPlan(nil, params, g, CPU(), GPU()); err == nil {
		t.Error("nil model accepted")
	}

	// The facade's model persists and reloads to the same predictions.
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := tuner.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	p2 := PredictSwitchPoint(loaded, params, g, CPU(), GPU())
	if p2 != point {
		t.Errorf("loaded model predicts %v, original %v", p2, point)
	}
}

func TestMeasureAllFacade(t *testing.T) {
	g, err := GenerateRMAT(10, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	times, err := MeasureAll(g, firstSource(t, g))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"top-down", "bottom-up", "hybrid-mn", "beamer-ab"} {
		if times[name] <= 0 {
			t.Errorf("%s: no time recorded", name)
		}
	}
}

func TestGraphAnalysisViaFacade(t *testing.T) {
	// Analysis methods are reachable through the Graph alias.
	g, err := BuildGraph(6, []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, count := g.ConnectedComponents(); count != 3 {
		t.Errorf("components = %d, want 3", count)
	}
	if d := g.ApproxDiameter(0); d != 2 {
		t.Errorf("diameter = %d, want 2", d)
	}
}

func firstSource(t *testing.T, g *Graph) int32 {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	t.Fatal("no edges in graph")
	return 0
}
