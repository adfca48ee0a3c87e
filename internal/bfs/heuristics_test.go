package bfs

import (
	"context"
	"math"
	"testing"
)

func TestAlphaBetaDefaults(t *testing.T) {
	p := NewAlphaBeta(0, 0)
	if p.Alpha != 14 || p.Beta != 24 {
		t.Errorf("defaults = (%g, %g), want Beamer's (14, 24)", p.Alpha, p.Beta)
	}
	if p.Validate() != nil {
		t.Error("default policy invalid")
	}
	bad := &AlphaBeta{Alpha: -1, Beta: 24}
	if bad.Validate() == nil {
		t.Error("negative alpha accepted")
	}
}

func TestAlphaBetaPhases(t *testing.T) {
	p := NewAlphaBeta(14, 24)
	small := StepInfo{
		Step: 1, FrontierVertices: 1, FrontierEdges: 10,
		UnvisitedVertices: 9999, TotalVertices: 10000, TotalEdges: 160000,
	}
	if d := p.Choose(small); d != TopDown {
		t.Fatalf("small frontier: %s, want TD", d)
	}
	// Frontier edge work overtakes unexplored/alpha: m_f = 50000,
	// m_u ~= 160000*0.5 = 80000, 80000/14 ~= 5714 < 50000.
	big := StepInfo{
		Step: 3, FrontierVertices: 3000, FrontierEdges: 50000,
		UnvisitedVertices: 5000, TotalVertices: 10000, TotalEdges: 160000,
	}
	if d := p.Choose(big); d != BottomUp {
		t.Fatalf("big frontier: %s, want BU", d)
	}
	// Still bottom-up while the frontier stays above |V|/beta.
	mid := StepInfo{
		Step: 4, FrontierVertices: 1000, FrontierEdges: 9000,
		UnvisitedVertices: 2000, TotalVertices: 10000, TotalEdges: 160000,
	}
	if d := p.Choose(mid); d != BottomUp {
		t.Fatalf("mid frontier in BU phase: %s, want BU", d)
	}
	// Shrunk below |V|/beta = 416: back to top-down.
	tail := StepInfo{
		Step: 5, FrontierVertices: 100, FrontierEdges: 900,
		UnvisitedVertices: 500, TotalVertices: 10000, TotalEdges: 160000,
	}
	if d := p.Choose(tail); d != TopDown {
		t.Fatalf("tail frontier: %s, want TD", d)
	}
}

func TestAlphaBetaTraversalCorrect(t *testing.T) {
	g := testRMAT(t, 10, 16, 3)
	want, err := SerialEngine().Run(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), g, 0, Options{Policy: NewAlphaBeta(0, 0), Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameTraversal(t, "alphabeta", want, got)
	if err := Validate(g, got); err != nil {
		t.Errorf("alpha/beta traversal invalid: %v", err)
	}
	// It must actually have used both directions on an R-MAT graph.
	var td, bu bool
	for _, d := range got.Directions {
		td = td || d == TopDown
		bu = bu || d == BottomUp
	}
	if !td || !bu {
		t.Errorf("alpha/beta never switched: %v", got.Directions)
	}
}

func TestHongHybridNeverSwitchesBack(t *testing.T) {
	p := NewHongHybrid()
	big := StepInfo{FrontierVertices: 500, TotalVertices: 10000}
	small := StepInfo{FrontierVertices: 1, TotalVertices: 10000}
	if d := p.Choose(small); d != TopDown {
		t.Fatalf("before threshold: %s", d)
	}
	if d := p.Choose(big); d != BottomUp {
		t.Fatalf("at threshold: %s", d)
	}
	if d := p.Choose(small); d != BottomUp {
		t.Fatalf("after switch with small frontier: %s, want BU (one-way switch)", d)
	}
}

func TestHongHybridTraversalCorrect(t *testing.T) {
	g := testRMAT(t, 10, 8, 5)
	want, err := SerialEngine().Run(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), g, 1, Options{Policy: NewHongHybrid(), Workers: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameTraversal(t, "hong", want, got)
	if err := Validate(g, got); err != nil {
		t.Errorf("hong traversal invalid: %v", err)
	}
}

// Regression: non-positive (or NaN) policy parameters must fall back
// to the published constants instead of the divide-by-zero behaviour
// that silently froze the policy in one direction. Before the fix,
// MN{M: 0}.Choose produced |E|/0 = +Inf thresholds: bottom-up was
// unreachable, and the simulator's policy replay (which calls Choose
// directly, bypassing Run's Validate) priced a pure top-down traversal
// while claiming a hybrid.
func TestDegenerateParametersFallBack(t *testing.T) {
	nan := math.NaN()

	// A frontier large enough that the default (64, 64) rule says
	// bottom-up: |V|cq = 1000 >= 10000/64.
	big := StepInfo{
		Step: 3, FrontierVertices: 1000, FrontierEdges: 50000,
		UnvisitedVertices: 5000, TotalVertices: 10000, TotalEdges: 160000,
	}
	want := MN{M: DefaultM, N: DefaultN}.Choose(big)
	if want != BottomUp {
		t.Fatalf("test premise: default rule on big frontier = %s, want BU", want)
	}
	for _, p := range []MN{{}, {M: 0, N: 64}, {M: 64, N: 0}, {M: -5, N: -5}, {M: nan, N: nan}} {
		if d := p.Choose(big); d != want {
			t.Errorf("MN{%g,%g}.Choose = %s, want %s (default fallback)", p.M, p.N, d, want)
		}
	}

	// Zero-value AlphaBeta (built without NewAlphaBeta) must behave
	// like Beamer's constants, not freeze top-down forever.
	var ab AlphaBeta
	ref := NewAlphaBeta(0, 0)
	huge := StepInfo{
		Step: 3, FrontierVertices: 3000, FrontierEdges: 50000,
		UnvisitedVertices: 5000, TotalVertices: 10000, TotalEdges: 160000,
	}
	if got, want := ab.Choose(huge), ref.Choose(huge); got != want {
		t.Errorf("zero-value AlphaBeta.Choose = %s, want %s", got, want)
	}

	// Zero-value HongHybrid must use the 3%% threshold, not switch to
	// bottom-up on the first single-vertex frontier.
	var hh HongHybrid
	tiny := StepInfo{
		Step: 1, FrontierVertices: 1, FrontierEdges: 8,
		UnvisitedVertices: 9999, TotalVertices: 10000, TotalEdges: 160000,
	}
	if d := hh.Choose(tiny); d != TopDown {
		t.Errorf("zero-value HongHybrid switched on a single-vertex frontier")
	}
	over := StepInfo{
		Step: 4, FrontierVertices: 400, FrontierEdges: 6400,
		UnvisitedVertices: 9000, TotalVertices: 10000, TotalEdges: 160000,
	}
	if d := hh.Choose(over); d != BottomUp {
		t.Errorf("zero-value HongHybrid did not switch above 3%% of |V|")
	}

	// Run still rejects an unusable MN policy up front: the fallback
	// is for direct Choose callers, not a license for bad config.
	if _, err := Run(context.Background(), pathGraph(t, 3), 0, Options{Policy: MN{M: -1, N: -1}}, nil); err == nil {
		t.Error("Run accepted negative MN policy")
	}
}
