package graph

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	input := `# a comment
% another comment

10 20
20 30
10 30
`
	edges, n, origIDs, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 3 {
		t.Fatalf("n=%d edges=%d, want 3/3", n, len(edges))
	}
	if origIDs[0] != 10 || origIDs[1] != 20 || origIDs[2] != 30 {
		t.Errorf("origIDs = %v", origIDs)
	}
	if edges[0] != (Edge{From: 0, To: 1}) {
		t.Errorf("first edge = %v", edges[0])
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"one-field line":     "42\n",
		"non-numeric vertex": "a b\n",
		"negative vertex":    "-1 2\n",
		"bad second vertex":  "1 x\n",
	}
	for name, input := range cases {
		if _, _, _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{0, 1}, {1, 2}, {3, 4}, {0, 4}}, BuildOptions{Symmetrize: true})
	// g as a text edge list: a header comment, then each undirected
	// edge once (u <= v), tab-separated.
	text := "# crossbfs edge list: 5 vertices, 8 directed entries\n0\t1\n0\t4\n1\t2\n3\t4\n"
	edges, n, _, err := ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Build(n, edges, BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip: %d entries vs %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestLoadEdgeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.el")
	content := "# test graph\n100 200\n200 300\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, origIDs, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 4 {
		t.Errorf("loaded %d vertices, %d entries", g.NumVertices(), g.NumEdges())
	}
	if len(origIDs) != 3 || origIDs[2] != 300 {
		t.Errorf("origIDs = %v", origIDs)
	}
}

func TestLoadEdgeListMissing(t *testing.T) {
	if _, _, err := LoadEdgeList(filepath.Join(t.TempDir(), "none.el")); err == nil {
		t.Error("missing file accepted")
	}
}
