package part

import (
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
)

func rmatGraph(t *testing.T, scale, ef int, seed uint64) *graph.CSR {
	t.Helper()
	p := rmat.DefaultParams(scale, ef)
	p.Seed = seed
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatalf("rmat.Generate: %v", err)
	}
	return g
}

func lattice(t *testing.T, side int) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	id := func(x, y int) int32 { return int32(x*side + y) }
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			if x+1 < side {
				edges = append(edges, graph.Edge{From: id(x, y), To: id(x+1, y)})
			}
			if y+1 < side {
				edges = append(edges, graph.Edge{From: id(x, y), To: id(x, y+1)})
			}
		}
	}
	g, err := graph.Build(side*side, edges, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatalf("graph.Build: %v", err)
	}
	return g
}

func TestPartitionValidates(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"rmat10":    rmatGraph(t, 10, 8, 1),
		"rmat8":     rmatGraph(t, 8, 16, 5),
		"lattice20": lattice(t, 20),
	}
	for name, g := range graphs {
		for _, ranks := range []int{1, 2, 3, 4, 8, 16} {
			l, err := Partition(g, ranks)
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", name, ranks, err)
			}
			if err := l.Validate(g.NumVertices()); err != nil {
				t.Fatalf("%s ranks=%d: %v", name, ranks, err)
			}
		}
	}
}

func TestPartitionRejectsBadRanks(t *testing.T) {
	g := lattice(t, 4)
	for _, ranks := range []int{0, -1} {
		if _, err := Partition(g, ranks); err == nil {
			t.Errorf("ranks=%d accepted", ranks)
		}
	}
}

func TestPartitionEdgeBalance(t *testing.T) {
	// On an R-MAT graph the edge-balanced cut must do much better than
	// a naive vertex-count cut would: no rank should hold more than
	// ~2.5x its fair share of adjacency entries (alignment and the
	// heavy head of the degree distribution cost some slack).
	g := rmatGraph(t, 12, 16, 3)
	const ranks = 4
	l, err := Partition(g, ranks)
	if err != nil {
		t.Fatal(err)
	}
	fair := float64(g.NumEdges()) / ranks
	for r := 0; r < ranks; r++ {
		lo, hi := l.Range(r)
		edges := float64(g.Offsets[hi] - g.Offsets[lo])
		if edges > 2.5*fair {
			t.Errorf("rank %d holds %.0f adjacency entries, fair share %.0f", r, edges, fair)
		}
	}
}

func TestWordRangesDisjoint(t *testing.T) {
	cases := []struct {
		g     *graph.CSR
		ranks []int
	}{
		{rmatGraph(t, 10, 8, 2), []int{2, 3, 7}},
		// 169 vertices over 8 ranks: the last rank is empty and starts
		// at the unaligned |V|.
		{lattice(t, 13), []int{8}},
	}
	for _, c := range cases {
		for _, ranks := range c.ranks {
			l, err := Partition(c.g, ranks)
			if err != nil {
				t.Fatal(err)
			}
			prevHi := 0
			for r := 0; r < ranks; r++ {
				lo, hi := l.WordRange(r)
				if hi == lo {
					continue // an empty range overlaps nothing
				}
				if lo < prevHi {
					t.Fatalf("n=%d ranks=%d: rank %d word range [%d,%d) overlaps previous end %d",
						c.g.NumVertices(), ranks, r, lo, hi, prevHi)
				}
				prevHi = hi
			}
		}
	}
}

func TestOwner(t *testing.T) {
	g := rmatGraph(t, 9, 8, 4)
	l, err := Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		r := l.Owner(v)
		if lo, hi := l.Range(r); v < lo || v >= hi {
			t.Fatalf("Owner(%d) = %d but its range is [%d,%d)", v, r, lo, hi)
		}
	}
}

func TestShrinkAdoptsOrphans(t *testing.T) {
	// Four ranks, each owning its home segment; rank 2 dies.
	owner := []int{0, 1, 2, 3}
	next, err := Shrink(owner, []bool{false, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 3} // lowest-loaded (tie → lowest rank) adopts
	for i := range want {
		if next[i] != want[i] {
			t.Fatalf("Shrink = %v, want %v", next, want)
		}
	}
	// The input is not mutated.
	for i, r := range []int{0, 1, 2, 3} {
		if owner[i] != r {
			t.Fatalf("Shrink mutated its input: %v", owner)
		}
	}
}

func TestShrinkBalancesLoad(t *testing.T) {
	// Rank 0 already carries segment 1 from an earlier death; when rank
	// 2 dies, its segment goes to rank 3 (load 1), not rank 0 (load 2).
	next, err := Shrink([]int{0, 0, 2, 3}, []bool{false, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 3, 3}
	for i := range want {
		if next[i] != want[i] {
			t.Fatalf("Shrink = %v, want %v", next, want)
		}
	}
}

func TestShrinkCascades(t *testing.T) {
	// Kill ranks one at a time until a single survivor owns everything;
	// every intermediate map must assign each segment to a live rank.
	const n = 8
	owner := make([]int, n)
	for i := range owner {
		owner[i] = i
	}
	dead := make([]bool, n)
	for kill := 0; kill < n-1; kill++ {
		dead[kill] = true
		next, err := Shrink(owner, dead)
		if err != nil {
			t.Fatalf("kill %d: %v", kill, err)
		}
		for seg, r := range next {
			if r < 0 || r >= n || dead[r] {
				t.Fatalf("kill %d: segment %d assigned to dead/out-of-range rank %d", kill, seg, r)
			}
		}
		// Deterministic: the same inputs reassign identically.
		again, err := Shrink(owner, dead)
		if err != nil {
			t.Fatal(err)
		}
		for seg := range next {
			if next[seg] != again[seg] {
				t.Fatalf("kill %d: Shrink not deterministic at segment %d", kill, seg)
			}
		}
		owner = next
	}
	for seg, r := range owner {
		if r != n-1 {
			t.Fatalf("last survivor should own every segment, got owner[%d]=%d", seg, r)
		}
	}
}

func TestShrinkRejects(t *testing.T) {
	if _, err := Shrink([]int{0, 1}, []bool{false}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Shrink([]int{0, 1}, []bool{true, true}); err == nil {
		t.Error("no-survivor map accepted")
	}
	if _, err := Shrink([]int{0, 7}, []bool{false, false}); err == nil {
		t.Error("out-of-range owner accepted")
	}
}
