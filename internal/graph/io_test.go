package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{0, 1}, {1, 2}, {3, 4}, {0, 4}}, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed sizes: %d/%d -> %d/%d",
			g.NumVertices(), g.NumEdges(), got.NumVertices(), got.NumEdges())
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		a, b := g.Neighbors(v), got.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency changed", v)
			}
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	g := mustBuild(t, 0, nil, BuildOptions{})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if got.NumVertices() != 0 {
		t.Error("empty graph round trip gained vertices")
	}
}

func TestSaveLoad(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {2, 3}}, BuildOptions{Symmetrize: true})
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := g.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Error("Save/Load changed edge count")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.csr")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

func TestReadFromBadMagic(t *testing.T) {
	_, err := ReadFrom(strings.NewReader("NOTAGRAPHFILE___penguins"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic error = %v", err)
	}
}

func TestReadFromTruncated(t *testing.T) {
	g := mustBuild(t, 100, []Edge{{0, 1}, {5, 7}, {20, 90}}, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	full := buf.Bytes()
	// Every truncation point must produce an error, not a panic or a
	// silently wrong graph.
	for _, cut := range []int{0, 4, 8, 16, 24, 30, len(full) / 2, len(full) - 1} {
		if _, err := ReadFrom(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestReadFromCorruptedAdjacency(t *testing.T) {
	g := mustBuild(t, 8, []Edge{{0, 1}, {1, 2}, {2, 3}}, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	data := buf.Bytes()
	// Corrupt the last adjacency entry to an out-of-range vertex.
	data[len(data)-1] = 0x7f
	if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
		t.Error("corrupted adjacency accepted")
	}
}

// TestReadFromAsymmetric loads files whose adjacency is not
// symmetric: a directed 3-cycle, whose serial and bottom-up levels
// differ; a file that holds one entry's reverse twice; and one whose
// last list has an entry without a reverse. Each must be rejected with
// an error that names an unmatched entry.
func TestReadFromAsymmetric(t *testing.T) {
	cases := []struct {
		name  string
		g     *CSR
		entry string
	}{
		{"directed cycle", mustBuild(t, 3, []Edge{{0, 1}, {1, 2}, {2, 0}}, BuildOptions{}), "entry 0->1"},
		{"multiplicity", mustBuild(t, 3, []Edge{{0, 1}, {1, 0}, {1, 0}, {1, 2}, {2, 1}}, BuildOptions{KeepDuplicates: true}), "entry 1->0"},
		{"missing last reverse", mustBuild(t, 3, []Edge{{0, 1}, {1, 0}, {2, 1}}, BuildOptions{}), "entry 2->1"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if _, err := c.g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFrom(&buf)
		if err == nil || !strings.Contains(err.Error(), "not symmetric") || !strings.Contains(err.Error(), c.entry) {
			t.Errorf("%s: ReadFrom error %v, want one naming %s", c.name, err, c.entry)
		}
	}
}

// checkSymmetricGraph fails unless every entry u->v of g has a
// reverse v->u, counted with multiplicity.
func checkSymmetricGraph(t testing.TB, g *CSR) {
	t.Helper()
	count := map[[2]int32]int{}
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			count[[2]int32{u, v}]++
		}
	}
	for e, k := range count {
		if count[[2]int32{e[1], e[0]}] != k {
			t.Fatalf("entry %d->%d appears %d times, its reverse %d", e[0], e[1], k, count[[2]int32{e[1], e[0]}])
		}
	}
}

func TestReadFromImplausibleHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte("CSRGRAF1"))
	// Absurd vertex count: must be rejected before allocation.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	buf.Write(make([]byte, 8))
	if _, err := ReadFrom(&buf); err == nil {
		t.Error("implausible header accepted")
	}
}

// lyingHeader is a 28-byte file whose header claims 2^33 vertices and
// 4 edges, followed by only 4 bytes of offsets.
func lyingHeader() []byte {
	b := []byte("CSRGRAF1")
	b = binary.LittleEndian.AppendUint64(b, 1<<33)
	b = binary.LittleEndian.AppendUint64(b, 4)
	return append(b, 0, 0, 0, 0)
}

// TestReadFromHeaderLies feeds a header whose counts the data does not
// back. ReadFrom must fail with the truncation error, allocating in
// proportion to the bytes that arrived rather than to the header.
func TestReadFromHeaderLies(t *testing.T) {
	data := lyingHeader()
	if len(data) != 28 {
		t.Fatalf("input is %d bytes, want 28", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "reading offsets") {
		t.Fatalf("err = %v, want reading offsets: %v", err, io.ErrUnexpectedEOF)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Errorf("ReadFrom allocated %d bytes for a 28-byte input, want < 64 MiB", alloc)
	}
}

// TestReadFromChunked round-trips a graph whose offsets and adjacency
// span several read chunks, so the arrays grow while they are read:
// the result must match, with cap == len. A cut inside the adjacency's
// second chunk must report the truncation.
func TestReadFromChunked(t *testing.T) {
	n := 3*readChunk + 5
	edges := make([]Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, Edge{From: int32(v), To: int32(v + 1)})
	}
	g := mustBuild(t, n, edges, BuildOptions{Symmetrize: true})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	full := buf.Bytes()
	got, err := ReadFrom(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if !slices.Equal(got.Offsets, g.Offsets) || !slices.Equal(got.Adj, g.Adj) {
		t.Fatal("round trip through chunked reads changed the graph")
	}
	if cap(got.Offsets) != len(got.Offsets) || cap(got.Adj) != len(got.Adj) {
		t.Errorf("cap/len: offsets %d/%d, adjacency %d/%d, want equal",
			cap(got.Offsets), len(got.Offsets), cap(got.Adj), len(got.Adj))
	}
	cut := 24 + 8*(n+1) + 4*(readChunk+7)
	_, err = ReadFrom(bytes.NewReader(full[:cut]))
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "reading adjacency") {
		t.Errorf("cut in the adjacency's second chunk: err = %v, want reading adjacency: %v", err, io.ErrUnexpectedEOF)
	}
}
