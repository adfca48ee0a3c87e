package graph

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"crossbfs/internal/xrand"
)

// mustBuild builds a graph or fails the test.
func mustBuild(t *testing.T, n int, edges []Edge, opts BuildOptions) *CSR {
	t.Helper()
	g, err := Build(n, edges, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("built graph fails validation: %v", err)
	}
	return g
}

func TestBuildEmptyGraph(t *testing.T) {
	g := mustBuild(t, 0, nil, BuildOptions{})
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestBuildSingleVertex(t *testing.T) {
	g := mustBuild(t, 1, nil, BuildOptions{})
	if g.NumVertices() != 1 || g.Degree(0) != 0 {
		t.Error("single-vertex graph malformed")
	}
}

func TestBuildSymmetrize(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{Symmetrize: true})
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge (%d,%d)", e[0], e[1])
		}
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
}

func TestBuildDirected(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.HasEdge(1, 0) {
		t.Error("directed build inserted reverse edge")
	}
}

func TestBuildDropsSelfLoops(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 0}, {0, 1}}, BuildOptions{Symmetrize: true})
	if g.HasEdge(0, 0) {
		t.Error("self loop kept by default")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestBuildKeepsSelfLoopsWhenAsked(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 0}}, BuildOptions{KeepSelfLoops: true})
	if !g.HasEdge(0, 0) {
		t.Error("self loop dropped despite KeepSelfLoops")
	}
}

func TestBuildDeduplicates(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 1}, {0, 1}, {1, 0}}, BuildOptions{Symmetrize: true})
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestBuildKeepDuplicates(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 1}, {0, 1}}, BuildOptions{KeepDuplicates: true})
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2 with duplicates kept", g.Degree(0))
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 2}}, BuildOptions{}); err == nil {
		t.Error("out-of-range To accepted")
	}
	if _, err := Build(2, []Edge{{-1, 0}}, BuildOptions{}); err == nil {
		t.Error("negative From accepted")
	}
	if _, err := Build(-1, nil, BuildOptions{}); err == nil {
		t.Error("negative vertex count accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{0, 4}, {0, 1}, {0, 3}, {0, 2}}, BuildOptions{})
	adj := g.Neighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not strictly sorted: %v", adj)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {1, 2}}, BuildOptions{Symmetrize: true})
	s := g.ComputeStats()
	if s.NumVertices != 4 || s.NumEdges != 4 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.MinDegree != 0 || s.MaxDegree != 2 {
		t.Errorf("stats degrees wrong: %+v", s)
	}
	if s.Isolated != 1 {
		t.Errorf("Isolated = %d, want 1 (vertex 3)", s.Isolated)
	}
	if s.AvgDegree != 1.0 {
		t.Errorf("AvgDegree = %g, want 1", s.AvgDegree)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g := mustBuild(t, 0, nil, BuildOptions{})
	s := g.ComputeStats()
	if s.MinDegree != 0 || s.MaxDegree != 0 || s.AvgDegree != 0 {
		t.Errorf("empty stats: %+v", s)
	}
}

func TestMaxDegree(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {0, 2}, {0, 3}}, BuildOptions{Symmetrize: true})
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
}

// TestBuildSymmetrizedIsUndirected: property — in a symmetrized graph,
// every edge has its reverse.
func TestBuildSymmetrizedIsUndirected(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		m := rng.Intn(100)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
		}
		g, err := Build(n, edges, BuildOptions{Symmetrize: true})
		if err != nil {
			return false
		}
		for u := int32(0); u < int32(n); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuildPreservesConnectivity: property — every input edge (u,v)
// with u != v appears in the built graph.
func TestBuildPreservesConnectivity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(20)
		m := 1 + rng.Intn(60)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
		}
		g, err := Build(n, edges, BuildOptions{})
		if err != nil {
			return false
		}
		for _, e := range edges {
			if e.From != e.To && !g.HasEdge(e.From, e.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{Symmetrize: true})

	bad := &CSR{Offsets: append([]int64(nil), g.Offsets...), Adj: append([]int32(nil), g.Adj...)}
	bad.Adj[0] = 99 // out of range
	if bad.Validate() == nil {
		t.Error("out-of-range neighbor not caught")
	}

	bad2 := &CSR{Offsets: append([]int64(nil), g.Offsets...), Adj: append([]int32(nil), g.Adj...)}
	bad2.Offsets[1] = 100 // non-monotone / out of bounds
	if bad2.Validate() == nil {
		t.Error("bad offsets not caught")
	}

	bad3 := &CSR{Offsets: []int64{1, 2}, Adj: []int32{0, 0}}
	if bad3.Validate() == nil {
		t.Error("offsets not starting at zero not caught")
	}
}

// checkNonIsolated checks g.NonIsolated() bit by bit: bit v is set iff
// Degree(v) > 0, and no bit at or beyond |V| is set. g.NumIsolated()
// must count the vertices of degree 0.
func checkNonIsolated(t testing.TB, name string, g *CSR) {
	t.Helper()
	n := g.NumVertices()
	mask := g.NonIsolated()
	if len(mask) != (n+63)/64 {
		t.Fatalf("%s: %d mask words for %d vertices", name, len(mask), n)
	}
	isolated := 0
	for v := 0; v < 64*len(mask); v++ {
		set := mask[v/64]&(1<<uint(v%64)) != 0
		if want := v < n && g.Degree(int32(v)) > 0; set != want {
			t.Fatalf("%s: bit %d is %v, want %v (|V| = %d)", name, v, set, want, n)
		}
		if v < n && !set {
			isolated++
		}
	}
	if got := g.NumIsolated(); got != isolated {
		t.Fatalf("%s: NumIsolated() = %d, want %d", name, got, isolated)
	}
}

func TestNonIsolated(t *testing.T) {
	// 65 vertices on a path through 0..63: word 0 is full and the
	// isolated tail, vertex 64, leaves word 1 empty.
	var path []Edge
	for v := int32(0); v < 63; v++ {
		path = append(path, Edge{v, v + 1})
	}
	tail := mustBuild(t, 65, path, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if _, err := tail.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	readBack, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	// Vertex 1 has only a self-loop, which Build drops by default.
	loop := []Edge{{1, 1}, {0, 2}}
	cases := []struct {
		name string
		g    *CSR
	}{
		{"empty", mustBuild(t, 0, nil, BuildOptions{})},
		{"one-vertex", mustBuild(t, 1, nil, BuildOptions{})},
		{"isolated-tail", tail},
		{"self-loop-dropped", mustBuild(t, 3, loop, BuildOptions{Symmetrize: true})},
		{"self-loop-kept", mustBuild(t, 3, loop, BuildOptions{Symmetrize: true, KeepSelfLoops: true})},
		{"read-back", readBack},
	}
	for _, tc := range cases {
		checkNonIsolated(t, tc.name, tc.g)
	}
}

// TestNonIsolatedConcurrent has 8 goroutines ask a fresh graph for its
// mask and hub index at once, as concurrent traversals of one graph
// do, half of them for the index first: every caller must get the one
// cached backing array of each.
func TestNonIsolatedConcurrent(t *testing.T) {
	g := randomGraph(t, 5, 1000, 300)
	masks := make([][]uint64, 8)
	hubs := make([][]int32, 8)
	hasHubs := make([][]uint64, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range masks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 1 {
				hubs[i], hasHubs[i] = g.Hubs()
			}
			masks[i] = g.NonIsolated()
			if i%2 == 0 {
				hubs[i], hasHubs[i] = g.Hubs()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range masks {
		if &masks[i][0] != &masks[0][0] {
			t.Errorf("caller %d got a different mask array", i)
		}
		if &hubs[i][0] != &hubs[0][0] || &hasHubs[i][0] != &hasHubs[0][0] {
			t.Errorf("caller %d got a different hub index", i)
		}
	}
	checkNonIsolated(t, "concurrent", g)
	checkHubs(t, "concurrent", g, nil)
}

// randomGraph builds a symmetrized graph on n vertices from m random
// edges drawn with the given seed.
func randomGraph(t *testing.T, seed uint64, n, m int) *CSR {
	t.Helper()
	rng := xrand.New(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return mustBuild(t, n, edges, BuildOptions{Symmetrize: true})
}

// referenceHubs recomputes the hub index from its definition: order
// v's neighbours by degree, largest first and smallest id on ties, and
// keep the first if its degree is strictly greater than v's.
func referenceHubs(g *CSR) []int32 {
	hub := make([]int32, g.NumVertices())
	for v := range hub {
		nb := slices.Clone(g.Neighbors(int32(v)))
		slices.SortFunc(nb, func(a, b int32) int {
			return cmp.Or(cmp.Compare(g.Degree(b), g.Degree(a)), cmp.Compare(a, b))
		})
		hub[v] = -1
		if len(nb) > 0 && g.Degree(nb[0]) > g.Degree(int32(v)) {
			hub[v] = nb[0]
		}
	}
	return hub
}

// checkHubs checks g.Hubs() against referenceHubs and, if want is not
// nil, against want; bit v of hasHub must be set iff hub[v] >= 0, and
// no bit at or beyond |V| may be set.
func checkHubs(t testing.TB, name string, g *CSR, want []int32) {
	t.Helper()
	n := g.NumVertices()
	hub, hasHub := g.Hubs()
	if len(hub) != n || len(hasHub) != (n+63)/64 {
		t.Fatalf("%s: %d hubs and %d hasHub words for %d vertices", name, len(hub), len(hasHub), n)
	}
	ref := referenceHubs(g)
	for v := range hub {
		if hub[v] != ref[v] {
			t.Fatalf("%s: hub[%d] = %d, reference says %d", name, v, hub[v], ref[v])
		}
		if want != nil && hub[v] != want[v] {
			t.Fatalf("%s: hub[%d] = %d, want %d", name, v, hub[v], want[v])
		}
	}
	for v := 0; v < 64*len(hasHub); v++ {
		set := hasHub[v/64]&(1<<uint(v%64)) != 0
		if want := v < n && hub[v] >= 0; set != want {
			t.Fatalf("%s: hasHub bit %d is %v, want %v (|V| = %d)", name, v, set, want, n)
		}
	}
}

func TestHubs(t *testing.T) {
	// Vertex 0 has two neighbours of degree 3, 2 and 5, and the
	// smaller id wins; 1 is isolated; the leaves 3, 4, 6 and 7 take
	// their centre.
	tie := mustBuild(t, 8, []Edge{{0, 5}, {0, 2}, {2, 3}, {2, 4}, {5, 6}, {5, 7}}, BuildOptions{Symmetrize: true})
	tieWant := []int32{2, -1, -1, 2, 2, -1, 5, 5}
	// The same graph with vertex 0's list stored as [5 2]: the tie
	// goes by id, not by list position.
	unsorted := tie.Clone()
	lo := unsorted.Offsets[0]
	unsorted.Adj[lo], unsorted.Adj[lo+1] = unsorted.Adj[lo+1], unsorted.Adj[lo]

	// 130 random vertices span three hasHub words, the last partial.
	random := randomGraph(t, 11, 130, 260)
	var buf bytes.Buffer
	if _, err := random.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	readBack, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	randomWant, _ := random.Hubs()
	reordered := random.Clone().SortNeighborsByDegree()

	// Vertex 1 has only a self-loop, which Build drops by default; a
	// kept loop makes 1 its own neighbour, of equal degree.
	loop := []Edge{{1, 1}, {0, 2}}
	cases := []struct {
		name string
		g    *CSR
		want []int32
	}{
		{"empty", mustBuild(t, 0, nil, BuildOptions{}), []int32{}},
		{"one-vertex", mustBuild(t, 1, nil, BuildOptions{}), []int32{-1}},
		{"star", mustBuild(t, 5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, BuildOptions{Symmetrize: true}), []int32{-1, 0, 0, 0, 0}},
		{"path", mustBuild(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, BuildOptions{Symmetrize: true}), []int32{1, -1, -1, -1, 3}},
		{"tie", tie, tieWant},
		{"tie-unsorted", unsorted, tieWant},
		{"self-loop-dropped", mustBuild(t, 3, loop, BuildOptions{Symmetrize: true}), []int32{-1, -1, -1}},
		{"self-loop-kept", mustBuild(t, 3, loop, BuildOptions{Symmetrize: true, KeepSelfLoops: true}), []int32{-1, -1, -1}},
		{"read-back", readBack, randomWant},
		{"reordered", reordered, randomWant},
	}
	for _, tc := range cases {
		checkHubs(t, tc.name, tc.g, tc.want)
	}
}
