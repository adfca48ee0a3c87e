package rmat

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"crossbfs/internal/graph"
)

func TestValidate(t *testing.T) {
	good := DefaultParams(4, 8)
	if err := good.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := good
	bad.A = 0.9 // sum > 1
	if bad.Validate() == nil {
		t.Error("probabilities summing past 1 accepted")
	}
	bad = good
	bad.Scale = -1
	if bad.Validate() == nil {
		t.Error("negative scale accepted")
	}
	bad = good
	bad.EdgeFactor = -2
	if bad.Validate() == nil {
		t.Error("negative edge factor accepted")
	}
	bad = good
	bad.B = -0.19
	bad.A = good.A + 2*0.19
	if bad.Validate() == nil {
		t.Error("negative quadrant probability accepted")
	}
	bad = good
	bad.D = math.NaN()
	if bad.Validate() == nil {
		t.Error("NaN quadrant probability accepted")
	}
	bad = good
	bad.Scale = 31 // 2^31 vertices: ids no longer fit in int32
	if bad.Validate() == nil {
		t.Error("scale 31 accepted")
	}
	ok := good
	ok.Scale = 30
	if err := ok.Validate(); err != nil {
		t.Errorf("scale 30 rejected: %v", err)
	}
}

// goldenHashes returns FNV-1a 64 hashes over little-endian bytes of
// the edge list (From then To, as int32, per edge) and of the
// symmetrized CSR (Offsets as int64, then Adj as int32), and |Adj|.
func goldenHashes(t *testing.T, p Params) (edgeHash, csrHash uint64, adj int) {
	t.Helper()
	edges, err := Edges(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(p.NumVertices(), edges, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b []byte
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(e.From))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.To))
		h.Write(b)
	}
	edgeHash = h.Sum64()
	h.Reset()
	for _, o := range g.Offsets {
		h.Write(binary.LittleEndian.AppendUint64(b[:0], uint64(o)))
	}
	for _, v := range g.Adj {
		h.Write(binary.LittleEndian.AppendUint32(b[:0], uint32(v)))
	}
	return edgeHash, h.Sum64(), len(g.Adj)
}

// TestGolden pins the generator's and the builder's output: any
// change to the random streams, the quadrant choice, the permutation
// or the CSR layout changes a hash. The graphs must not depend on the
// worker count, so every case runs at GOMAXPROCS 1 and 2.
func TestGolden(t *testing.T) {
	uniform := DefaultParams(10, 8)
	uniform.A, uniform.B, uniform.C, uniform.D = 0.25, 0.25, 0.25, 0.25
	unpermuted := DefaultParams(10, 8)
	unpermuted.Permute = false
	seeded := func(seed uint64) Params {
		p := DefaultParams(12, 16)
		p.Seed = seed
		return p
	}
	cases := []struct {
		name              string
		p                 Params
		edgeHash, csrHash uint64
		adj               int
	}{
		{"scale12-seed1", seeded(1), 0xb54c0ca219113114, 0xdaeb86accf2a5cb5, 96750},
		{"scale12-seed2", seeded(2), 0x234260af0b0d1a5f, 0x83ba161b2304f600, 96712},
		{"scale12-seed201", seeded(201), 0xb5486962572e545b, 0xc1662f560a8af6d3, 96694},
		{"scale10-unpermuted", unpermuted, 0xc82cb866ec201552, 0xa521bb0fb79c1969, 12156},
		{"scale10-uniform", uniform, 0x8e43db431aa586ad, 0x99199dbe504e96c6, 16228},
		// The rmat-batch benchmark graph.
		{"scale18-seed1", DefaultParams(18, 16), 0x8348515179fffcca, 0x603a18ee4683e385, 7611118},
	}
	for _, procs := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				if tc.p.Scale > 12 && testing.Short() {
					t.Skip("SCALE 18 under -short")
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				e, c, adj := goldenHashes(t, tc.p)
				if e != tc.edgeHash || c != tc.csrHash || adj != tc.adj {
					t.Errorf("edges %016x, CSR %016x, |Adj| %d; want %016x, %016x, %d",
						e, c, adj, tc.edgeHash, tc.csrHash, tc.adj)
				}
			})
		}
	}
}

func TestCounts(t *testing.T) {
	p := DefaultParams(10, 16)
	if p.NumVertices() != 1024 {
		t.Errorf("NumVertices = %d, want 1024", p.NumVertices())
	}
	if p.NumGeneratedEdges() != 16*1024 {
		t.Errorf("NumGeneratedEdges = %d, want %d", p.NumGeneratedEdges(), 16*1024)
	}
}

func TestEdgesExactCountAndRange(t *testing.T) {
	p := DefaultParams(8, 8)
	edges, err := Edges(p)
	if err != nil {
		t.Fatalf("Edges: %v", err)
	}
	if int64(len(edges)) != p.NumGeneratedEdges() {
		t.Fatalf("generated %d edges, want %d", len(edges), p.NumGeneratedEdges())
	}
	n := int32(p.NumVertices())
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			t.Fatalf("edge (%d,%d) out of range", e.From, e.To)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := DefaultParams(9, 8)
	a, err := Edges(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Edges(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedChangesGraph(t *testing.T) {
	p1 := DefaultParams(9, 8)
	p2 := p1
	p2.Seed = 2
	a, _ := Edges(p1)
	b, _ := Edges(p2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical edge lists")
	}
}

func TestSkewedDegreeDistribution(t *testing.T) {
	// The whole point of R-MAT with A=0.57: a heavy-tailed degree
	// distribution. The max degree must far exceed the average.
	p := DefaultParams(12, 16)
	p.Permute = false
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.MaxDegree < int64(8*s.AvgDegree) {
		t.Errorf("degree distribution not skewed: max %d vs avg %.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestUniformQuadrantsAreNotSkewed(t *testing.T) {
	// Control for the test above: A=B=C=D=0.25 is Erdos-Renyi-like.
	p := Params{Scale: 12, EdgeFactor: 16, A: 0.25, B: 0.25, C: 0.25, D: 0.25, Seed: 1}
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.MaxDegree > int64(8*s.AvgDegree) {
		t.Errorf("uniform quadrants still skewed: max %d vs avg %.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestPermutationPreservesDegreeMultiset(t *testing.T) {
	base := DefaultParams(9, 8)
	base.Permute = false
	perm := base
	perm.Permute = true

	gBase, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	gPerm, err := Generate(perm)
	if err != nil {
		t.Fatal(err)
	}
	count := func(g *graph.CSR) map[int64]int {
		m := map[int64]int{}
		for v := 0; v < g.NumVertices(); v++ {
			m[g.Degree(int32(v))]++
		}
		return m
	}
	a, b := count(gBase), count(gPerm)
	if len(a) != len(b) {
		t.Fatalf("degree histograms differ in support: %d vs %d", len(a), len(b))
	}
	for d, c := range a {
		if b[d] != c {
			t.Errorf("degree %d count %d vs %d after permutation", d, c, b[d])
		}
	}
}

func TestPermutationBreaksIdentity(t *testing.T) {
	base := DefaultParams(10, 8)
	base.Permute = false
	perm := base
	perm.Permute = true
	a, _ := Edges(base)
	b, _ := Edges(perm)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("permutation left all edges identical")
	}
}

func TestGenerateSymmetric(t *testing.T) {
	g, err := Generate(DefaultParams(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(v, u) {
				t.Fatalf("edge (%d,%d) missing reverse", u, v)
			}
		}
	}
}

func TestZeroScale(t *testing.T) {
	p := DefaultParams(0, 4)
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// One vertex; all generated edges are self-loops and get dropped.
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Errorf("scale-0 graph: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestZeroEdgeFactor(t *testing.T) {
	g, err := Generate(DefaultParams(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("edgefactor-0 graph has %d edges", g.NumEdges())
	}
}

// TestQuadrantBias: property — with A dominating, the unpermuted graph
// concentrates edges on low-numbered vertices.
func TestQuadrantBias(t *testing.T) {
	p := DefaultParams(10, 16)
	p.Permute = false
	edges, err := Edges(p)
	if err != nil {
		t.Fatal(err)
	}
	half := int32(p.NumVertices() / 2)
	lower := 0
	for _, e := range edges {
		if e.From < half {
			lower++
		}
	}
	// With A+B=0.76 the top half of the matrix owns ~76% of first
	// recursion choices.
	if frac := float64(lower) / float64(len(edges)); frac < 0.66 {
		t.Errorf("only %.0f%% of edges start in the low half, want >= 66%%", frac*100)
	}
}

func TestEdgesDeterministicProperty(t *testing.T) {
	// Determinism across arbitrary parameter draws.
	f := func(seed uint64, scaleBits, efBits uint8) bool {
		p := DefaultParams(int(scaleBits%8), int(efBits%8))
		p.Seed = seed
		a, err1 := Edges(p)
		b, err2 := Edges(p)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
