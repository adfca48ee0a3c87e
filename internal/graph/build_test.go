package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"crossbfs/internal/xrand"
)

// referenceBuild is Build written the plain way: range-check every
// edge, append each entry to its vertex's list, sort each list with
// slices.Sort, drop repeats unless asked to keep them, and concatenate.
func referenceBuild(n int, edges []Edge, opts BuildOptions) (*CSR, error) {
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
	}
	lists := make([][]int32, n)
	for _, e := range edges {
		if e.From == e.To && !opts.KeepSelfLoops {
			continue
		}
		lists[e.From] = append(lists[e.From], e.To)
		if opts.Symmetrize && e.From != e.To {
			lists[e.To] = append(lists[e.To], e.From)
		}
	}
	g := &CSR{Offsets: make([]int64, n+1)}
	for v, list := range lists {
		slices.Sort(list)
		if !opts.KeepDuplicates {
			list = slices.Compact(list)
		}
		g.Adj = append(g.Adj, list...)
		g.Offsets[v+1] = int64(len(g.Adj))
	}
	return g, nil
}

// checkMatchesReference builds edges with Build and with referenceBuild
// and fails unless both fail with the same message or both return the
// same Offsets and Adj, and the graph passes Validate.
func checkMatchesReference(t testing.TB, name string, n int, edges []Edge, opts BuildOptions) *CSR {
	t.Helper()
	want, wantErr := referenceBuild(n, edges, opts)
	g, err := Build(n, edges, opts)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %+v: Build error %v, reference error %v", name, opts, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !slices.Equal(g.Offsets, want.Offsets) || !slices.Equal(g.Adj, want.Adj) {
		t.Fatalf("%s %+v: Build differs from the reference", name, opts)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s %+v: %v", name, opts, err)
	}
	return g
}

// allOptions lists the eight combinations of the three BuildOptions
// flags.
func allOptions() []BuildOptions {
	var out []BuildOptions
	for bits := 0; bits < 8; bits++ {
		out = append(out, BuildOptions{Symmetrize: bits&1 != 0, KeepSelfLoops: bits&2 != 0, KeepDuplicates: bits&4 != 0})
	}
	return out
}

// skewedEdges draws m edges on n vertices, squaring uniform draws so
// that low ids get long lists with repeats and self-loops.
func skewedEdges(seed uint64, n, m int) []Edge {
	rng := xrand.New(seed)
	edges := make([]Edge, m)
	for i := range edges {
		a, b := rng.Float64(), rng.Float64()
		edges[i] = Edge{int32(a * a * float64(n)), int32(b * b * float64(n))}
	}
	return edges
}

// TestBuildFanOut runs every phase of Build and the derived-data scan
// on three workers, on a graph above all their work floors, and
// checks the result against the reference and against the same build
// on one worker, for every option combination. An out-of-range edge
// in the last chunk, then another in the first, must be the one the
// error names.
func TestBuildFanOut(t *testing.T) {
	const n, m = 1 << 12, 3*placeWorkerEdges + 1000
	edges := skewedEdges(3, n, m)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if w := workersFor(m, placeWorkerEdges, runtime.GOMAXPROCS(0)); w != 3 {
		t.Fatalf("placement runs on %d workers, want 3", w)
	}
	for _, opts := range allOptions() {
		g := checkMatchesReference(t, "fan-out", n, edges, opts)
		if opts == (BuildOptions{Symmetrize: true}) {
			checkNonIsolated(t, "fan-out", g)
			checkHubs(t, "fan-out", g, nil)
		}
		runtime.GOMAXPROCS(1)
		serial, err := Build(n, edges, opts)
		runtime.GOMAXPROCS(3)
		if err != nil || !slices.Equal(serial.Offsets, g.Offsets) || !slices.Equal(serial.Adj, g.Adj) {
			t.Fatalf("%+v: one worker built a different graph (err %v)", opts, err)
		}
	}

	bad := slices.Clone(edges)
	bad[m-1] = Edge{0, n}
	checkMatchesReference(t, "bad last chunk", n, bad, BuildOptions{})
	bad[5] = Edge{-1, 0}
	checkMatchesReference(t, "bad first chunk", n, bad, BuildOptions{})
}

// TestBuildWideCounts runs placement with int64 counts, which Build
// uses when an edge list has 2^30 edges or more, and checks it places
// every list as the int32 counts do.
func TestBuildWideCounts(t *testing.T) {
	edges := skewedEdges(5, 300, 5000)
	for _, opts := range allOptions() {
		narrow, err := place[int32](300, edges, opts, 4)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := place[int64](300, edges, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(narrow.Offsets, wide.Offsets) || !slices.Equal(narrow.Adj, wide.Adj) {
			t.Fatalf("%+v: int64 counts placed the lists differently", opts)
		}
	}
}

// TestBuildLongLists covers the radix sort: lists of 64 entries and
// more, on graphs whose ids take 0, 1, 8, 9 and 17 key bits, so that
// the sort makes zero, one, two and three passes.
func TestBuildLongLists(t *testing.T) {
	for _, n := range []int{1, 2, 256, 300, 1 << 17} {
		var edges []Edge
		for i := 0; i < 500; i++ {
			edges = append(edges, Edge{0, int32((i * 7919) % n)})
		}
		for _, opts := range allOptions() {
			checkMatchesReference(t, "long lists n="+strconv.Itoa(n), n, edges, opts)
		}
	}
}

func TestBuildRejectsVertexCountBeyondInt32(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int cannot hold more than math.MaxInt32 vertices")
	}
	big := int64(math.MaxInt32) + 1
	// A 16 GiB Offsets array would be allocated if the count were not
	// checked first.
	if _, err := Build(int(big), nil, BuildOptions{}); err == nil {
		t.Errorf("Build accepted %d vertices", big)
	}
}

// FuzzBuildMatchesReference decodes the input into a vertex count of
// up to 64, the three BuildOptions flags and an edge list, and
// compares Build with referenceBuild. An endpoint byte maps to a vertex
// id modulo n+1, so the id n, out of range, also occurs.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{5, 1, 0, 1, 1, 2, 3, 4})
	f.Add([]byte{3, 7, 0, 0, 1, 1, 2, 2, 0, 1, 1, 0})
	f.Add([]byte{2, 0, 0, 2})
	f.Add([]byte{0, 0})
	f.Add(append([]byte{64, 6}, make([]byte, 200)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]) % 65
		flags := data[1]
		opts := BuildOptions{Symmetrize: flags&1 != 0, KeepSelfLoops: flags&2 != 0, KeepDuplicates: flags&4 != 0}
		var edges []Edge
		for i := 2; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{int32(data[i]) % int32(n+1), int32(data[i+1]) % int32(n+1)})
		}
		g := checkMatchesReference(t, "fuzz", n, edges, opts)
		if g != nil {
			checkNonIsolated(t, "fuzz", g)
		}
	})
}
