package graph

import (
	"bytes"
	"testing"
)

// Fuzz targets: the two parsers must never panic or return a graph
// that fails validation, no matter the input. Run the seed corpus in
// normal `go test`; explore with `go test -fuzz=FuzzReadFrom`.

func FuzzReadFrom(f *testing.F) {
	// Seeds: a valid file, truncations, and corruptions.
	g, err := Build(5, []Edge{{0, 1}, {1, 2}, {3, 4}}, BuildOptions{Symmetrize: true})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("CSRGRAF1"))
	f.Add([]byte{})
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)-1] ^= 0xff
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		checkNonIsolated(t, "accepted graph", g)
		checkHubs(t, "accepted graph", g, nil)
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("1 2\n2 3\n")
	f.Add("# comment\n\n10 20\n")
	f.Add("x y\n")
	f.Add("-1 5\n")
	f.Add("9999999999999999999999 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		edges, n, origIDs, err := ReadEdgeList(bytes.NewReader([]byte(input)))
		if err != nil {
			return
		}
		if len(origIDs) != n {
			t.Fatalf("%d ids for %d vertices", len(origIDs), n)
		}
		for _, e := range edges {
			if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
				t.Fatalf("edge %v outside compacted range [0,%d)", e, n)
			}
		}
		// Accepted edge lists must always build.
		if _, err := Build(n, edges, BuildOptions{Symmetrize: true}); err != nil {
			t.Fatalf("accepted edge list fails to build: %v", err)
		}
	})
}
