package tuner

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/rmat"
	"crossbfs/internal/xrand"
)

func TestSampleVectorLayout(t *testing.T) {
	s := Sample{
		Graph: GraphInfo{NumVertices: 32e6, NumEdges: 256e6, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		TD:    ArchInfo{PeakGflops: 512, L1KB: 512, BandwidthGBs: 100},
		BU:    ArchInfo{PeakGflops: 1024, L1KB: 768, BandwidthGBs: 128},
	}
	v := s.Vector()
	if len(v) != NumFeatures {
		t.Fatalf("vector length %d, want %d", len(v), NumFeatures)
	}
	// The paper's §III-D worked example orders features exactly so:
	// (32, 256, 0.57, 0.19, 0.19, 0.05, 512, 512, 100, 1024, 768, 128).
	want := []float64{32e6, 256e6, 0.57, 0.19, 0.19, 0.05, 512, 512, 100, 1024, 768, 128}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("feature %d = %g, want %g", i, v[i], want[i])
		}
	}
}

func TestArchInfoOf(t *testing.T) {
	gpu := archsim.KeplerK20x()
	ai := ArchInfoOf(gpu)
	if ai.PeakGflops != gpu.PeakSPGflops || ai.L1KB != gpu.L1KB || ai.BandwidthGBs != gpu.MeasuredBW {
		t.Errorf("ArchInfoOf = %+v", ai)
	}
}

func TestCandidateGrid(t *testing.T) {
	grid := CandidateGrid(40, 25, 300, 300)
	if len(grid) != 1000 {
		t.Fatalf("grid size %d, want 1000 (the paper's candidate count)", len(grid))
	}
	for _, p := range grid {
		if p.M < 1 || p.M > 300.001 || p.N < 1 || p.N > 300.001 {
			t.Fatalf("candidate %v out of [1,300] range", p)
		}
	}
	// Both endpoints present.
	first, last := grid[0], grid[len(grid)-1]
	if first.M != 1 || first.N != 1 {
		t.Errorf("first candidate %v, want (1,1)", first)
	}
	if math.Abs(last.M-300) > 0.01 || math.Abs(last.N-300) > 0.01 {
		t.Errorf("last candidate %v, want (300,300)", last)
	}
}

func TestCandidateGridDegenerate(t *testing.T) {
	grid := CandidateGrid(1, 1, 300, 300)
	if len(grid) != 1 || grid[0].M != 1 || grid[0].N != 1 {
		t.Errorf("degenerate grid = %v", grid)
	}
}

func testTrace(t *testing.T, scale, ef int, seed uint64) (*bfs.Trace, GraphInfo) {
	t.Helper()
	p := rmat.DefaultParams(scale, ef)
	p.Seed = seed
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var src int32 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			src = int32(v)
			break
		}
	}
	if src < 0 {
		t.Fatal("no edges")
	}
	tr, err := bfs.TraceFrom(context.Background(), g, src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, GraphInfoFor(p, g)
}

func TestEvaluateBounds(t *testing.T) {
	tr, _ := testTrace(t, 12, 16, 1)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	cands := CandidateGrid(10, 10, 300, 300)
	e, err := Evaluate(tr, cpu, gpu, archsim.PCIe(), cands)
	if err != nil {
		t.Fatal(err)
	}
	_, best := e.Best()
	_, worst := e.Worst()
	if best > worst {
		t.Fatalf("best %g > worst %g", best, worst)
	}
	for i, tt := range e.Times {
		if tt < best || tt > worst {
			t.Errorf("time[%d]=%g outside [best, worst]", i, tt)
		}
	}
	mean := e.MeanTime()
	if mean < best || mean > worst {
		t.Errorf("mean %g outside [best, worst]", mean)
	}
}

func TestEvaluateEmptyCandidates(t *testing.T) {
	tr, _ := testTrace(t, 8, 8, 1)
	if _, err := Evaluate(tr, archsim.SandyBridge(), archsim.SandyBridge(), archsim.PCIe(), nil); err == nil {
		t.Error("empty candidate set accepted")
	}
}

func TestSwitchPointMatters(t *testing.T) {
	// The premise of the whole paper: candidate choice changes
	// cross-architecture runtime substantially.
	tr, _ := testTrace(t, 15, 16, 2)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	e, err := Evaluate(tr, cpu, gpu, archsim.PCIe(), DefaultCandidates())
	if err != nil {
		t.Fatal(err)
	}
	_, best := e.Best()
	_, worst := e.Worst()
	if worst < 1.5*best {
		t.Errorf("best-to-worst spread only %.2fx; switching point has no effect", worst/best)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Error("empty corpus accepted")
	}
	bad := []Labeled{
		{Sample: Sample{}, Best: SwitchPoint{M: 0, N: 1}},
		{Sample: Sample{}, Best: SwitchPoint{M: 1, N: 1}},
	}
	if _, err := Train(bad, TrainOptions{}); err == nil {
		t.Error("non-positive label accepted")
	}
}

func TestTrainPredictRoundTrip(t *testing.T) {
	// Synthetic corpus where best M is a simple function of features:
	// the model must recover it approximately on training points.
	var samples []Labeled
	for i := 0; i < 40; i++ {
		v := float64(1<<12) * float64(1+i%4)
		e := v * 16
		bw := 30 + float64(i%5)*40
		m := 10 + bw // monotone in bandwidth
		samples = append(samples, Labeled{
			Sample: Sample{
				Graph: GraphInfo{NumVertices: v, NumEdges: e, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
				TD:    ArchInfo{PeakGflops: 256, L1KB: 32, BandwidthGBs: bw},
				BU:    ArchInfo{PeakGflops: 3950, L1KB: 64, BandwidthGBs: 188},
			},
			Best: SwitchPoint{M: m, N: 2 * m},
		})
	}
	model, err := Train(samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:8] {
		p := model.Predict(s.Sample)
		if p.M < s.Best.M/2 || p.M > s.Best.M*2 {
			t.Errorf("predicted M=%.1f for label %.1f (off > 2x)", p.M, s.Best.M)
		}
		if p.N < s.Best.N/2 || p.N > s.Best.N*2 {
			t.Errorf("predicted N=%.1f for label %.1f (off > 2x)", p.N, s.Best.N)
		}
	}
}

func TestPredictClampsToRange(t *testing.T) {
	samples := []Labeled{
		{Sample: Sample{Graph: GraphInfo{NumVertices: 1000, NumEdges: 8000}}, Best: SwitchPoint{M: 10, N: 10}},
		{Sample: Sample{Graph: GraphInfo{NumVertices: 2000, NumEdges: 16000}}, Best: SwitchPoint{M: 20, N: 20}},
		{Sample: Sample{Graph: GraphInfo{NumVertices: 4000, NumEdges: 32000}}, Best: SwitchPoint{M: 40, N: 40}},
	}
	model, err := Train(samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wild extrapolation input: prediction must stay in [1, maxLabel].
	p := model.Predict(Sample{Graph: GraphInfo{NumVertices: 1e12, NumEdges: 1e13}})
	if p.M < 1 || p.M > 40 || p.N < 1 || p.N > 40 {
		t.Errorf("unclamped prediction %v", p)
	}
}

func TestModelSaveLoad(t *testing.T) {
	samples := []Labeled{
		{Sample: Sample{Graph: GraphInfo{NumVertices: 1000, NumEdges: 8000, A: 0.5}}, Best: SwitchPoint{M: 10, N: 30}},
		{Sample: Sample{Graph: GraphInfo{NumVertices: 2000, NumEdges: 16000, A: 0.6}}, Best: SwitchPoint{M: 20, N: 60}},
		{Sample: Sample{Graph: GraphInfo{NumVertices: 4000, NumEdges: 32000, A: 0.7}}, Best: SwitchPoint{M: 40, N: 120}},
	}
	model, err := Train(samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	probe := samples[1].Sample
	a, b := model.Predict(probe), loaded.Predict(probe)
	if math.Abs(a.M-b.M) > 1e-9 || math.Abs(a.N-b.N) > 1e-9 {
		t.Errorf("loaded model predicts %v, original %v", b, a)
	}
}

func TestLoadModelMissing(t *testing.T) {
	if _, err := LoadModel(filepath.Join(t.TempDir(), "none.gob")); err == nil {
		t.Error("missing model file accepted")
	}
}

func TestBuildCorpusSmall(t *testing.T) {
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	spec := CorpusSpec{
		Scales:          []int{9},
		EdgeFactors:     []int{8},
		ProbSets:        [][4]float64{{0.57, 0.19, 0.19, 0.05}},
		Seeds:           []uint64{1},
		SourcesPerGraph: 2,
		ArchPairs:       [][2]archsim.Arch{{cpu, cpu}, {cpu, gpu}},
		Link:            archsim.PCIe(),
		Candidates:      CandidateGrid(8, 8, 300, 300),
	}
	var calls int
	samples, err := BuildCorpus(spec, func(done, total int) {
		calls++
		if total != spec.NumSamples() {
			t.Errorf("progress total %d, want %d", total, spec.NumSamples())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != spec.NumSamples() {
		t.Fatalf("corpus size %d, want %d", len(samples), spec.NumSamples())
	}
	if calls != len(samples) {
		t.Errorf("progress called %d times for %d samples", calls, len(samples))
	}
	for i, s := range samples {
		if s.Best.M < 1 || s.Best.N < 1 {
			t.Errorf("sample %d has invalid label %v", i, s.Best)
		}
		if s.Graph.NumVertices != 512 {
			t.Errorf("sample %d graph info wrong: %+v", i, s.Graph)
		}
	}
}

func TestBuildCorpusRejectsEmptySpec(t *testing.T) {
	if _, err := BuildCorpus(CorpusSpec{}, nil); err == nil {
		t.Error("empty spec accepted")
	}
}

// TestEndToEndRegressionQuality is the paper's headline claim scaled
// down: train on a small corpus, predict switching points for a graph
// configuration not in the corpus, and verify the regression strategy
// lands near the exhaustive optimum and far from the worst.
func TestEndToEndRegressionQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus build in -short mode")
	}
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()
	spec := CorpusSpec{
		Scales:          []int{11, 12, 13},
		EdgeFactors:     []int{8, 16},
		ProbSets:        [][4]float64{{0.57, 0.19, 0.19, 0.05}},
		Seeds:           []uint64{1},
		SourcesPerGraph: 2,
		ArchPairs: [][2]archsim.Arch{
			{cpu, cpu}, {gpu, gpu}, {mic, mic}, {cpu, gpu}, {cpu, mic}, {gpu, cpu},
		},
		Link:       archsim.PCIe(),
		Candidates: CandidateGrid(16, 12, 300, 300),
	}
	samples, err := BuildCorpus(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Train(samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Held-out configuration: scale and edge factor between and beyond
	// training points.
	tr, gi := testTrace(t, 12, 12, 99)
	rng := xrand.New(42)
	for _, pair := range [][2]archsim.Arch{{cpu, gpu}, {gpu, gpu}} {
		st, err := CompareStrategies(tr, pair[0], pair[1], spec.Link, spec.Candidates, model, gi, rng)
		if err != nil {
			t.Fatal(err)
		}
		if st.Exhaustive > st.Regression {
			t.Errorf("exhaustive %g slower than regression %g: search is broken", st.Exhaustive, st.Regression)
		}
		q := st.RegressionQuality()
		if q < 0.5 {
			t.Errorf("%s/%s: regression reaches only %.0f%% of exhaustive (reg %g best %g worst %g)",
				pair[0].Kind, pair[1].Kind, q*100, st.Regression, st.Exhaustive, st.Worst)
		}
		if st.Regression > st.Average {
			t.Errorf("%s/%s: regression %g worse than average-candidate %g",
				pair[0].Kind, pair[1].Kind, st.Regression, st.Average)
		}
	}
}
