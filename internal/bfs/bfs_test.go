package bfs

import (
	"fmt"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/invariant"
	"crossbfs/internal/rmat"
	"crossbfs/internal/xrand"
)

// mustInvariants runs the runtime verification layer over a completed
// traversal — every kernel test calls it so a silently corrupted
// parent tree can never pass the suite.
func mustInvariants(t *testing.T, name string, g *graph.CSR, r *Result) {
	t.Helper()
	if err := invariant.Check(g, r.Source, r.Parent, r.Level); err != nil {
		t.Errorf("%s: invariant violated: %v", name, err)
	}
}

// pathGraph returns 0-1-2-...-(n-1).
func pathGraph(t *testing.T, n int) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32(i + 1)})
	}
	return mustBuild(t, n, edges)
}

// starGraph returns a hub 0 connected to 1..n-1.
func starGraph(t *testing.T, n int) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{From: 0, To: int32(i)})
	}
	return mustBuild(t, n, edges)
}

func mustBuild(t testing.TB, n int, edges []graph.Edge) *graph.CSR {
	t.Helper()
	g, err := graph.Build(n, edges, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// partialGrainGraph returns a random graph on 2*buGrain+37 vertices, so
// a parallel bottom-up level runs two full grains and a partial last
// grain whose last bitmap word is partial too. Edges join only the
// first n-5 vertices: the tail word also holds isolated vertices that
// stay unvisited.
func partialGrainGraph(t *testing.T) *graph.CSR {
	t.Helper()
	const n = 2*buGrain + 37
	rng := xrand.New(13)
	edges := make([]graph.Edge, 4*n)
	for i := range edges {
		edges[i] = graph.Edge{From: int32(rng.Intn(n - 5)), To: int32(rng.Intn(n - 5))}
	}
	return mustBuild(t, n, edges)
}

// isolatedGraph returns a graph on 2*buGrain+70 vertices whose
// isolated vertices fill whole bitmap words (64-127 and the second
// grain's second word) and sit at 0, 63, 64, buGrain-1, buGrain, the
// last vertex and every third vertex, so bottom-up's non-isolated mask
// has clear bits at grain and word edges. A ring through the other
// vertices keeps each of them at degree > 0; random chords shorten it.
func isolatedGraph(t *testing.T) *graph.CSR {
	t.Helper()
	const n = 2*buGrain + 70
	isolated := func(v int) bool {
		switch {
		case v%3 == 0, v/64 == 1, v/64 == buGrain/64+1:
			return true
		case v == 63, v == 64, v == buGrain-1, v == buGrain, v == n-1:
			return true
		}
		return false
	}
	var live []int32
	for v := 0; v < n; v++ {
		if !isolated(v) {
			live = append(live, int32(v))
		}
	}
	rng := xrand.New(17)
	edges := make([]graph.Edge, 0, 3*len(live))
	for i, v := range live {
		edges = append(edges,
			graph.Edge{From: v, To: live[(i+1)%len(live)]},
			graph.Edge{From: v, To: live[rng.Intn(len(live))]})
	}
	return mustBuild(t, n, edges)
}

// countFromLevels recounts a traversal's VisitedCount and
// TraversedEdges from its level map: the independent check on the
// counters the kernels accumulate as they discover vertices.
func countFromLevels(g *graph.CSR, r *Result) (visited, traversed int64) {
	for v, l := range r.Level {
		if l != NotVisited {
			visited++
			traversed += g.Degree(int32(v))
		}
	}
	return visited, traversed
}

func testRMAT(t *testing.T, scale, ef int, seed uint64) *graph.CSR {
	t.Helper()
	p := rmat.DefaultParams(scale, ef)
	p.Seed = seed
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatalf("rmat.Generate: %v", err)
	}
	return g
}

func TestSerialPath(t *testing.T) {
	g := pathGraph(t, 5)
	r, err := Serial(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 5; v++ {
		if r.Level[v] != v {
			t.Errorf("Level[%d] = %d, want %d", v, r.Level[v], v)
		}
	}
	if r.Parent[0] != 0 {
		t.Error("source parent wrong")
	}
	for v := int32(1); v < 5; v++ {
		if r.Parent[v] != v-1 {
			t.Errorf("Parent[%d] = %d, want %d", v, r.Parent[v], v-1)
		}
	}
	if r.VisitedCount != 5 {
		t.Errorf("VisitedCount = %d, want 5", r.VisitedCount)
	}
	if r.Depth() != 4 {
		t.Errorf("Depth = %d, want 4", r.Depth())
	}
	if err := Validate(g, r); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSerialStar(t *testing.T) {
	g := starGraph(t, 100)
	r, err := Serial(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(1); v < 100; v++ {
		if r.Level[v] != 1 || r.Parent[v] != 0 {
			t.Fatalf("leaf %d: level %d parent %d", v, r.Level[v], r.Parent[v])
		}
	}
	// Search from a leaf: hub at 1, other leaves at 2.
	r2, err := Serial(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Level[0] != 1 || r2.Level[17] != 2 {
		t.Errorf("from leaf: hub level %d, other leaf level %d", r2.Level[0], r2.Level[17])
	}
}

func TestSerialDisconnected(t *testing.T) {
	g := mustBuild(t, 6, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 4}})
	r, err := Serial(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int32{3, 4, 5} {
		if r.Level[v] != NotVisited || r.Parent[v] != NotVisited {
			t.Errorf("vertex %d in other component was visited", v)
		}
	}
	if r.VisitedCount != 3 {
		t.Errorf("VisitedCount = %d, want 3", r.VisitedCount)
	}
	if err := Validate(g, r); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSerialIsolatedSource(t *testing.T) {
	g := mustBuild(t, 3, []graph.Edge{{From: 1, To: 2}})
	r, err := Serial(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.VisitedCount != 1 || r.Level[0] != 0 {
		t.Error("isolated source traversal wrong")
	}
	if r.NumLevels() != 1 {
		t.Errorf("NumLevels = %d, want 1", r.NumLevels())
	}
}

func TestSourceOutOfRange(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := Serial(g, 7); err == nil {
		t.Error("out-of-range source accepted by Serial")
	}
	if _, err := Serial(g, -1); err == nil {
		t.Error("negative source accepted by Serial")
	}
	if _, err := Run(g, 99, Options{}); err == nil {
		t.Error("out-of-range source accepted by Run")
	}
}

// sameTraversal checks two results agree on levels (parents may
// differ legitimately — any parent one level up is a valid BFS tree).
func sameTraversal(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if len(want.Level) != len(got.Level) {
		t.Fatalf("%s: level map sizes differ", name)
	}
	for v := range want.Level {
		if want.Level[v] != got.Level[v] {
			t.Fatalf("%s: Level[%d] = %d, want %d", name, v, got.Level[v], want.Level[v])
		}
	}
	if want.VisitedCount != got.VisitedCount {
		t.Fatalf("%s: VisitedCount %d, want %d", name, got.VisitedCount, want.VisitedCount)
	}
	if want.TraversedEdges != got.TraversedEdges {
		t.Fatalf("%s: TraversedEdges %d, want %d", name, got.TraversedEdges, want.TraversedEdges)
	}
}

// TestKernelsAgreeWithSerial checks every kernel against the serial
// level map. rmat13, grains and isolated have more than buGrain
// vertices, so at 2 and 4 workers the bottom-up level fans out over
// several grains; grains also ends in a partial grain and a partial
// word, and isolated leaves whole words out of the bottom-up walk. The
// bottom-up scan counts must match ComputeTrace's at every worker
// count.
func TestKernelsAgreeWithSerial(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"path":     pathGraph(t, 17),
		"star":     starGraph(t, 33),
		"rmat9":    testRMAT(t, 9, 8, 1),
		"rmat8":    testRMAT(t, 8, 16, 7),
		"rmat13":   testRMAT(t, 13, 8, 3),
		"grains":   partialGrainGraph(t),
		"isolated": isolatedGraph(t),
	}
	for name, g := range graphs {
		src := int32(0)
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(int32(v)) > 0 {
				src = int32(v)
				break
			}
		}
		want, err := Serial(g, src)
		if err != nil {
			t.Fatalf("%s: Serial: %v", name, err)
		}
		tr, err := ComputeTrace(g, want)
		if err != nil {
			t.Fatalf("%s: ComputeTrace: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			td, err := RunTopDown(g, src, workers)
			if err != nil {
				t.Fatalf("%s: top-down: %v", name, err)
			}
			sameTraversal(t, name+"/topdown", want, td)
			if err := Validate(g, td); err != nil {
				t.Errorf("%s: top-down invalid: %v", name, err)
			}
			mustInvariants(t, name+"/topdown", g, td)

			bu, err := RunBottomUp(g, src, workers)
			if err != nil {
				t.Fatalf("%s: bottom-up: %v", name, err)
			}
			sameTraversal(t, name+"/bottomup", want, bu)
			if err := Validate(g, bu); err != nil {
				t.Errorf("%s: bottom-up invalid: %v", name, err)
			}
			mustInvariants(t, name+"/bottomup", g, bu)
			for i, s := range tr.Steps {
				if bu.StepScans[i] != s.BottomUpScans {
					t.Errorf("%s/%d workers: step %d bottom-up scanned %d, trace says %d",
						name, workers, i+1, bu.StepScans[i], s.BottomUpScans)
				}
			}

			for _, mn := range [][2]float64{{1, 1}, {10, 10}, {64, 64}, {300, 300}, {2, 500}} {
				hy, err := Hybrid(g, src, mn[0], mn[1], workers)
				if err != nil {
					t.Fatalf("%s: hybrid(%v): %v", name, mn, err)
				}
				sameTraversal(t, name+"/hybrid", want, hy)
				if err := Validate(g, hy); err != nil {
					t.Errorf("%s: hybrid(%v) invalid: %v", name, mn, err)
				}
				mustInvariants(t, name+"/hybrid", g, hy)
			}
		}
	}
}

func TestHybridActuallySwitches(t *testing.T) {
	g := testRMAT(t, 10, 16, 3)
	r, err := Hybrid(g, 0, 300, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawTD, sawBU bool
	for _, d := range r.Directions {
		switch d {
		case TopDown:
			sawTD = true
		case BottomUp:
			sawBU = true
		}
	}
	if !sawTD || !sawBU {
		t.Errorf("hybrid with M=N=300 used directions %v; want both", r.Directions)
	}
}

func TestMNPolicy(t *testing.T) {
	info := StepInfo{
		FrontierVertices: 100, FrontierEdges: 1000,
		TotalVertices: 10000, TotalEdges: 100000,
	}
	// |E|/M = 1000 exactly: >= threshold switches to bottom-up.
	if d := (MN{M: 100, N: 1}).Choose(info); d != BottomUp {
		t.Errorf("edge threshold: got %s", d)
	}
	// Just under both thresholds: top-down.
	if d := (MN{M: 99, N: 99}).Choose(info); d != TopDown {
		t.Errorf("under thresholds: got %s", d)
	}
	// Vertex threshold alone triggers.
	if d := (MN{M: 1, N: 100}).Choose(info); d != BottomUp {
		t.Errorf("vertex threshold: got %s", d)
	}
}

func TestMNValidate(t *testing.T) {
	if (MN{M: 1, N: 1}).Validate() != nil {
		t.Error("valid MN rejected")
	}
	if (MN{M: 0, N: 1}).Validate() == nil {
		t.Error("M=0 accepted")
	}
	if (MN{M: 1, N: -3}).Validate() == nil {
		t.Error("negative N accepted")
	}
	if _, err := Run(pathGraph(t, 3), 0, Options{Policy: MN{}}); err == nil {
		t.Error("Run accepted zero-value MN policy")
	}
}

func TestRunRejectsUnknownDirection(t *testing.T) {
	g := pathGraph(t, 4)
	bad := PolicyFunc(func(StepInfo) Direction { return Direction(9) })
	if _, err := Run(g, 0, Options{Policy: bad}); err == nil {
		t.Error("unknown direction accepted")
	}
}

func TestDirectionString(t *testing.T) {
	if TopDown.String() != "TD" || BottomUp.String() != "BU" {
		t.Error("direction strings wrong")
	}
	if Direction(5).String() == "" {
		t.Error("unknown direction has empty string")
	}
}

func TestValidateCatchesCorruptedResults(t *testing.T) {
	g := testRMAT(t, 9, 8, 2)
	var src int32
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			src = int32(v)
			break
		}
	}
	r, err := Serial(g, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, r); err != nil {
		t.Fatalf("clean result invalid: %v", err)
	}

	corrupt := func(mutate func(*Result)) error {
		c := &Result{
			Source: r.Source,
			Parent: append([]int32(nil), r.Parent...),
			Level:  append([]int32(nil), r.Level...),
		}
		mutate(c)
		return Validate(g, c)
	}

	// Find a visited non-source vertex with level >= 2.
	var deep int32 = -1
	for v, l := range r.Level {
		if l >= 2 {
			deep = int32(v)
			break
		}
	}
	if deep < 0 {
		t.Fatal("test graph too shallow")
	}

	if corrupt(func(c *Result) { c.Level[deep]++ }) == nil {
		t.Error("wrong level not caught")
	}
	if corrupt(func(c *Result) { c.Parent[deep] = deep }) == nil {
		t.Error("self-parent cycle not caught")
	}
	if corrupt(func(c *Result) { c.Parent[deep] = NotVisited }) == nil {
		t.Error("parent/level visitedness disagreement not caught")
	}
	if corrupt(func(c *Result) { c.Level[r.Source] = 1 }) == nil {
		t.Error("non-zero source level not caught")
	}
	if corrupt(func(c *Result) { c.Parent[r.Source] = NotVisited; c.Level[r.Source] = NotVisited }) == nil {
		t.Error("unvisited source not caught")
	}
	// Mark a visited vertex unvisited entirely: breaks component rule.
	if corrupt(func(c *Result) { c.Parent[deep] = NotVisited; c.Level[deep] = NotVisited }) == nil {
		t.Error("hole in visited component not caught")
	}
}

func TestValidateCatchesNonTreeEdgeParent(t *testing.T) {
	// Parent not adjacent to child: levels can still be consistent on
	// a 4-cycle if we claim the wrong parent.
	g := mustBuild(t, 4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0}})
	r, err := Serial(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices 1 and 3 are both level 1; vertex 2 is level 2 with
	// parent 1 or 3. Claim a parent that is level-consistent but, for
	// vertex 1, not adjacent: parent of 1 := 3? (1,3) is not an edge,
	// but both are level 1 so the level rule can't catch it alone.
	c := &Result{Source: 0, Parent: append([]int32(nil), r.Parent...), Level: append([]int32(nil), r.Level...)}
	c.Parent[2] = 0 // (0,2) is not an edge; levels 0 -> 2 also break
	if Validate(g, c) == nil {
		t.Error("non-edge parent not caught")
	}
}

// counterGraph is one input of the counter tests.
type counterGraph struct {
	name string
	g    *graph.CSR
	src  int32
}

// counterGraphs are the shapes the counter tests run on: long levels,
// one hub level, a second component the counters must leave out, an
// isolated root, R-MAT skew, a bottom-up level over several grains, and
// one whose isolated vertices sit at word and grain edges.
func counterGraphs(t *testing.T) []counterGraph {
	t.Helper()
	twoComponents := mustBuild(t, 40, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 2, To: 3},
		{From: 10, To: 11}, {From: 11, To: 12}, {From: 12, To: 13}, {From: 13, To: 10},
	})
	return []counterGraph{
		{"path", pathGraph(t, 17), 0},
		{"star", starGraph(t, 33), 5},
		{"two-components", twoComponents, 1},
		{"isolated-root", twoComponents, 30},
		{"rmat", testRMAT(t, 10, 8, 5), 3},
		{"grains", partialGrainGraph(t), 0},
		{"isolated", isolatedGraph(t), 1},
	}
}

// counterEngines are the engines the counter tests run: every kernel
// and policy at 1 and 4 workers, and the sharded engine at 1, 2 and 4
// ranks.
func counterEngines() []Engine {
	engines := []Engine{SerialEngine()}
	for _, w := range []int{1, 4} {
		engines = append(engines,
			TopDownEngine(w), BottomUpEngine(w), EdgeParallelEngine(w),
			HybridEngine(1, 1, w), HybridEngine(DefaultM, DefaultN, w), HybridEngine(300, 300, w),
			BeamerEngine(0, 0, w), HongEngine(w))
	}
	for _, ranks := range []int{1, 2, 4} {
		engines = append(engines, NewShardedEngine(ranks, DefaultM, DefaultN))
	}
	return engines
}

// TestResultCounters checks VisitedCount and TraversedEdges of every
// engine against a recount from the level map. One workspace serves
// every run on a graph, so a counter that survives into the next
// traversal shows too.
func TestResultCounters(t *testing.T) {
	engines := counterEngines()
	for _, tc := range counterGraphs(t) {
		ws := NewWorkspace(tc.g.NumVertices())
		for i, e := range engines {
			label := fmt.Sprintf("%s/%d:%s", tc.name, i, e.Name())
			r, err := e.Run(tc.g, tc.src, ws)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			visited, traversed := countFromLevels(tc.g, r)
			if r.VisitedCount != visited || r.TraversedEdges != traversed {
				t.Errorf("%s: VisitedCount %d, recount %d; TraversedEdges %d, recount %d",
					label, r.VisitedCount, visited, r.TraversedEdges, traversed)
			}
		}
	}
}

// TestEdgelessGraph runs every engine on a 130-vertex graph with no
// edges, where bottom-up's non-isolated mask is all zeros, including
// the partial tail word: the source is the only vertex reached, in one
// step.
func TestEdgelessGraph(t *testing.T) {
	g := mustBuild(t, 130, nil)
	const src = 5
	for i, e := range counterEngines() {
		label := fmt.Sprintf("%d:%s", i, e.Name())
		r, err := e.Run(g, src, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if r.VisitedCount != 1 || r.NumLevels() != 1 {
			t.Errorf("%s: VisitedCount %d in %d steps, want 1 in 1", label, r.VisitedCount, r.NumLevels())
		}
		for v, l := range r.Level {
			want := NotVisited
			if v == src {
				want = 0
			}
			if l != want {
				t.Errorf("%s: Level[%d] = %d, want %d", label, v, l, want)
				break
			}
		}
	}
}

// stepRecorder wraps a Policy and keeps every StepInfo it is shown.
type stepRecorder struct {
	inner Policy
	steps []StepInfo
}

func (p *stepRecorder) Choose(s StepInfo) Direction {
	p.steps = append(p.steps, s)
	return p.inner.Choose(s)
}

// TestStepInfoFrontierEdges checks that every policy, the fixed ones
// included, sees the exact |V|cq and |E|cq before every step: the size
// and degree sum of the level map's step-1 level set.
func TestStepInfoFrontierEdges(t *testing.T) {
	policies := []struct {
		name string
		new  func() Policy
	}{
		{"topdown", func() Policy { return AlwaysTopDown }},
		{"bottomup", func() Policy { return AlwaysBottomUp }},
		{"mn(1,1)", func() Policy { return MN{M: 1, N: 1} }},
		{"mn(64,64)", func() Policy { return MN{M: DefaultM, N: DefaultN} }},
		{"mn(300,300)", func() Policy { return MN{M: 300, N: 300} }},
		{"beamer", func() Policy { return NewAlphaBeta(0, 0) }},
		{"hong", func() Policy { return NewHongHybrid() }},
	}
	engines := []struct {
		name string
		make func(Policy) Engine
	}{
		{"workers1", func(p Policy) Engine { return AdaptiveEngine("rec", func() Policy { return p }, 1) }},
		{"workers4", func(p Policy) Engine { return AdaptiveEngine("rec", func() Policy { return p }, 4) }},
		{"ranks1", func(p Policy) Engine { return NewShardedAdaptive(1, "rec", func() Policy { return p }) }},
		{"ranks2", func(p Policy) Engine { return NewShardedAdaptive(2, "rec", func() Policy { return p }) }},
		{"ranks4", func(p Policy) Engine { return NewShardedAdaptive(4, "rec", func() Policy { return p }) }},
	}
	for _, tc := range counterGraphs(t) {
		for _, p := range policies {
			for _, e := range engines {
				label := fmt.Sprintf("%s/%s/%s", tc.name, p.name, e.name)
				rec := &stepRecorder{inner: p.new()}
				r, err := e.make(rec).Run(tc.g, tc.src, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(rec.steps) != r.NumLevels() {
					t.Fatalf("%s: policy saw %d steps, run took %d", label, len(rec.steps), r.NumLevels())
				}
				for i, s := range rec.steps {
					var vcq, ecq int64
					for v, l := range r.Level {
						if l == int32(i) {
							vcq++
							ecq += tc.g.Degree(int32(v))
						}
					}
					if s.Step != i+1 || s.FrontierVertices != vcq || s.FrontierEdges != ecq {
						t.Errorf("%s: step %d saw (step %d, |V|cq %d, |E|cq %d), level map says (%d, %d)",
							label, i+1, s.Step, s.FrontierVertices, s.FrontierEdges, vcq, ecq)
					}
				}
			}
		}
	}
}

// TestRunCheckInvariants exercises the in-traversal verification
// layer: with CheckInvariants on, every policy and worker count must
// still complete (the per-step frontier checks hold on correct
// kernels), and the result must match the serial reference.
func TestRunCheckInvariants(t *testing.T) {
	g := testRMAT(t, 10, 16, 9)
	var src int32
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			src = int32(v)
			break
		}
	}
	want, err := Serial(g, src)
	if err != nil {
		t.Fatal(err)
	}
	policies := map[string]Policy{
		"topdown":  AlwaysTopDown,
		"bottomup": AlwaysBottomUp,
		"mn":       MN{M: 64, N: 64},
		"alpha":    NewAlphaBeta(0, 0),
	}
	for name, p := range policies {
		for _, workers := range []int{1, 4} {
			r, err := Run(g, src, Options{Policy: p, Workers: workers, CheckInvariants: true})
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, workers, err)
			}
			sameTraversal(t, name+"/checked", want, r)
		}
	}
}

func TestBottomUpScansMatchKernel(t *testing.T) {
	// The kernels report actual scan counts; the serial and parallel
	// bottom-up kernels must agree exactly (same early-exit order).
	g := testRMAT(t, 9, 16, 11)
	r1, err := RunBottomUp(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunBottomUp(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.StepScans) != len(r4.StepScans) {
		t.Fatalf("step counts differ: %d vs %d", len(r1.StepScans), len(r4.StepScans))
	}
	for i := range r1.StepScans {
		if r1.StepScans[i] != r4.StepScans[i] {
			t.Errorf("step %d scans: serial %d vs parallel %d", i+1, r1.StepScans[i], r4.StepScans[i])
		}
	}
}
