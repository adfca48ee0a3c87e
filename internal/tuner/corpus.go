package tuner

import (
	"context"
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/rmat"
	"crossbfs/internal/xrand"
)

// CorpusSpec describes the training corpus of Fig. 6: a sweep of
// graphs crossed with architecture pairs, each labelled by exhaustive
// search. The paper uses 140 samples; the default spec produces a
// comparable count at laptop scale.
type CorpusSpec struct {
	Scales          []int
	EdgeFactors     []int
	ProbSets        [][4]float64 // Kronecker (A, B, C, D) variants
	Seeds           []uint64
	SourcesPerGraph int
	ArchPairs       [][2]archsim.Arch
	Link            archsim.Link
	Candidates      []SwitchPoint
}

// DefaultCorpusSpec returns a ~144-sample corpus (2 scales x 2 edge
// factors x 2 probability sets x 9 architecture pairs x 1 seed x 2
// sources), sized to build in seconds on one machine.
func DefaultCorpusSpec() CorpusSpec {
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()
	var pairs [][2]archsim.Arch
	for _, td := range []archsim.Arch{cpu, gpu, mic} {
		for _, bu := range []archsim.Arch{cpu, gpu, mic} {
			pairs = append(pairs, [2]archsim.Arch{td, bu})
		}
	}
	return CorpusSpec{
		Scales:      []int{13, 14},
		EdgeFactors: []int{8, 16},
		ProbSets: [][4]float64{
			{0.57, 0.19, 0.19, 0.05}, // the paper's Graph 500 setting
			{0.45, 0.22, 0.22, 0.11}, // milder skew
		},
		Seeds:           []uint64{1},
		SourcesPerGraph: 2,
		ArchPairs:       pairs,
		Link:            archsim.PCIe(),
		Candidates:      DefaultCandidates(),
	}
}

// NumSamples returns the corpus size the spec will produce.
func (s CorpusSpec) NumSamples() int {
	//lint:narrow-ok corpus dimensions are config-sized (tens), product stays far below 2^31
	return len(s.Scales) * len(s.EdgeFactors) * len(s.ProbSets) * len(s.Seeds) *
		s.SourcesPerGraph * len(s.ArchPairs)
}

// BuildCorpus generates every graph in the spec, traces it from the
// requested number of sources, and labels the best switching point for
// every architecture pair by exhaustive search. Each graph is
// generated and traced once; labelling replays the trace, so the cost
// is dominated by graph construction, not by the 1000-point search.
// progress, if non-nil, is called after each labelled sample.
func BuildCorpus(spec CorpusSpec, progress func(done, total int)) ([]Labeled, error) {
	if spec.SourcesPerGraph <= 0 {
		spec.SourcesPerGraph = 1
	}
	if len(spec.Candidates) == 0 {
		return nil, fmt.Errorf("tuner: corpus spec has no candidate switching points")
	}
	if len(spec.ArchPairs) == 0 {
		return nil, fmt.Errorf("tuner: corpus spec has no architecture pairs")
	}
	total := spec.NumSamples()
	samples := make([]Labeled, 0, total)
	done := 0

	// One pooled workspace serves every traversal in the sweep: the
	// M/N labelling crosses scales, and the workspace resizes in place
	// instead of reallocating the working set per (graph, source).
	ws := bfs.DefaultPool.Get(0)
	defer bfs.DefaultPool.Put(ws)

	for _, scale := range spec.Scales {
		for _, ef := range spec.EdgeFactors {
			for _, probs := range spec.ProbSets {
				for _, seed := range spec.Seeds {
					p := rmat.Params{
						Scale: scale, EdgeFactor: ef,
						A: probs[0], B: probs[1], C: probs[2], D: probs[3],
						Seed: seed, Permute: true,
					}
					g, err := rmat.Generate(p)
					if err != nil {
						return nil, fmt.Errorf("tuner: generating scale-%d graph: %w", scale, err)
					}
					gi := GraphInfoFor(p, g)
					rng := xrand.New(seed ^ 0x5bf03635)
					for s := 0; s < spec.SourcesPerGraph; s++ {
						src, ok := pickSource(g, rng)
						if !ok {
							continue
						}
						tr, err := bfs.TraceFrom(context.Background(), g, src, ws, nil)
						if err != nil {
							return nil, fmt.Errorf("tuner: tracing scale-%d graph: %w", scale, err)
						}
						for _, pair := range spec.ArchPairs {
							best, err := LabelBest(tr, pair[0], pair[1], spec.Link, spec.Candidates)
							if err != nil {
								return nil, err
							}
							samples = append(samples, Labeled{
								Sample: Sample{Graph: gi, TD: ArchInfoOf(pair[0]), BU: ArchInfoOf(pair[1])},
								Best:   best,
							})
							done++
							if progress != nil {
								progress(done, total)
							}
						}
					}
				}
			}
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("tuner: corpus spec produced no samples")
	}
	return samples, nil
}

// pickSource draws a random non-isolated vertex, the Graph 500
// sampling rule. Returns ok=false if the graph has no edges.
func pickSource(g interface {
	NumVertices() int
	Degree(int32) int64
}, rng *xrand.Rand) (int32, bool) {
	n := g.NumVertices()
	if n == 0 {
		return 0, false
	}
	for tries := 0; tries < 4*n; tries++ {
		v := int32(rng.Intn(n))
		if g.Degree(v) > 0 {
			return v, true
		}
	}
	return 0, false
}
