package graph_test

import (
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
)

// BenchmarkBuild times Graph 500 kernel 1's CSR build alone: the
// SCALE 16 R-MAT edge list is generated once, outside the timer.
func BenchmarkBuild(b *testing.B) {
	p := rmat.DefaultParams(16, 16)
	edges, err := rmat.Edges(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(edges)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Build(p.NumVertices(), edges, graph.BuildOptions{Symmetrize: true}); err != nil {
			b.Fatal(err)
		}
	}
}
