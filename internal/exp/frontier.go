package exp

import (
	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/rmat"
)

// FrontierProfile is one series of Figs. 1 and 2: the per-level
// frontier sizes of one graph scale.
type FrontierProfile struct {
	Scale      int
	EdgeFactor int
	Steps      []bfs.LevelStats
}

// FrontierProfiles drives Figs. 1 and 2: for each SCALE it reports
// |V|cq and |E|cq per level — the bulge ("small at first, peaks in the
// middle") that motivates direction switching. The paper plots SCALE
// 19-23 with edgefactor 16 (2^(SCALE+4) edges).
func FrontierProfiles(scales []int, edgeFactor int, seed uint64) ([]FrontierProfile, error) {
	if len(scales) == 0 {
		scales = []int{13, 14, 15, 16, 17}
	}
	if edgeFactor == 0 {
		edgeFactor = 16
	}
	out := make([]FrontierProfile, 0, len(scales))
	for _, s := range scales {
		p := rmat.DefaultParams(s, edgeFactor)
		p.Seed = seed
		g, err := rmat.Generate(p)
		if err != nil {
			return nil, err
		}
		tr, err := traceFromSampledRoot(g, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, FrontierProfile{Scale: s, EdgeFactor: edgeFactor, Steps: tr.Steps})
	}
	return out, nil
}

// DirectionTimes is one row of Fig. 3: the per-level cost of each
// direction on one architecture.
type DirectionTimes struct {
	Step     int
	TopDown  float64 // seconds
	BottomUp float64
}

// DirectionComparison drives Fig. 3: price every level both ways on
// the CPU model. The figure's claim: bottom-up loses the early levels,
// wins the middle, and loses the tail again.
func DirectionComparison(cfg Config) ([]DirectionTimes, error) {
	cfg.setDefaults()
	_, tr, _, err := cfg.workload()
	if err != nil {
		return nil, err
	}
	cpu := archsim.SandyBridge()
	out := make([]DirectionTimes, 0, len(tr.Steps))
	for _, s := range tr.Steps {
		out = append(out, DirectionTimes{
			Step:     s.Step,
			TopDown:  cpu.TopDownTime(s),
			BottomUp: cpu.BottomUpTime(s),
		})
	}
	return out, nil
}
