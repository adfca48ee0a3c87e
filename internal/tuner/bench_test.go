package tuner

import (
	"context"
	"sync"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/rmat"
)

var (
	benchOnce  sync.Once
	benchTrace *bfs.Trace
	benchErr   error
)

func tracedGraph(b *testing.B) *bfs.Trace {
	b.Helper()
	benchOnce.Do(func() {
		g, err := rmat.Generate(rmat.DefaultParams(14, 16))
		if err != nil {
			benchErr = err
			return
		}
		var src int32
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(int32(v)) > 0 {
				src = int32(v)
				break
			}
		}
		benchTrace, benchErr = bfs.TraceFrom(context.Background(), g, src, nil, nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTrace
}

// BenchmarkEvaluate1000 is the exhaustive search over the paper's
// 1000-candidate set — the operation that replay makes cheap enough
// to label a whole training corpus.
func BenchmarkEvaluate1000(b *testing.B) {
	tr := tracedGraph(b)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	link := archsim.PCIe()
	cands := DefaultCandidates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(tr, cpu, gpu, link, cands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLabelBest(b *testing.B) {
	tr := tracedGraph(b)
	cpu := archsim.SandyBridge()
	link := archsim.PCIe()
	cands := CandidateGrid(16, 10, 300, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LabelBest(tr, cpu, cpu, link, cands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelPredict(b *testing.B) {
	samples := []Labeled{
		{Sample: Sample{Graph: GraphInfo{NumVertices: 1 << 12, NumEdges: 1 << 16}}, Best: SwitchPoint{M: 10, N: 10}},
		{Sample: Sample{Graph: GraphInfo{NumVertices: 1 << 13, NumEdges: 1 << 17}}, Best: SwitchPoint{M: 20, N: 15}},
		{Sample: Sample{Graph: GraphInfo{NumVertices: 1 << 14, NumEdges: 1 << 18}}, Best: SwitchPoint{M: 40, N: 25}},
	}
	model, err := Train(samples, TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	probe := samples[1].Sample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(probe)
	}
}
