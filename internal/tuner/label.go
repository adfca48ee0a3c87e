package tuner

import (
	"errors"
	"math"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
)

// Evaluation holds the exhaustive-search outcome over a candidate set
// for one traversal — the data behind the paper's Fig. 8 bars.
type Evaluation struct {
	Candidates []SwitchPoint
	Times      []float64 // simulated seconds per candidate
	BestIdx    int
	WorstIdx   int
}

// Best returns the optimal switching point and its time.
func (e *Evaluation) Best() (SwitchPoint, float64) {
	return e.Candidates[e.BestIdx], e.Times[e.BestIdx]
}

// Worst returns the most harmful switching point and its time.
func (e *Evaluation) Worst() (SwitchPoint, float64) {
	return e.Candidates[e.WorstIdx], e.Times[e.WorstIdx]
}

// MeanTime returns the average time over all candidates (the paper's
// "Average" bar).
func (e *Evaluation) MeanTime() float64 {
	var s float64
	for _, t := range e.Times {
		s += t
	}
	return s / float64(len(e.Times))
}

// SwitchTime prices one (M, N) on the two-architecture plan: the
// traversal the paper's training samples describe.
func SwitchTime(tr *bfs.Trace, td, bu archsim.Arch, link archsim.Link, p SwitchPoint) float64 {
	plan := core.TwoArchPlan{TDArch: td, BUArch: bu, M: p.M, N: p.N}
	return core.Simulate(tr, plan, link).Total
}

// Evaluate runs the exhaustive search (the paper's hybrid-oracle): it
// prices every candidate switching point against the trace. Because
// pricing replays the trace arithmetically, 1000 candidates cost
// milliseconds, not 1000 BFS executions.
func Evaluate(tr *bfs.Trace, td, bu archsim.Arch, link archsim.Link, candidates []SwitchPoint) (*Evaluation, error) {
	if len(candidates) == 0 {
		return nil, errors.New("tuner: no candidate switching points")
	}
	e := &Evaluation{
		Candidates: candidates,
		Times:      make([]float64, len(candidates)),
	}
	best, worst := math.Inf(1), math.Inf(-1)
	for i, p := range candidates {
		t := SwitchTime(tr, td, bu, link, p)
		e.Times[i] = t
		if t < best {
			best, e.BestIdx = t, i
		}
		if t > worst {
			worst, e.WorstIdx = t, i
		}
	}
	return e, nil
}

// LabelBest returns the training label for one traversal on one
// architecture pair (Fig. 6, step 1). The time landscape over (M, N)
// has wide near-optimal plateaus, so the raw argmin jumps around with
// trace noise; the label is instead the log-space centroid of every
// candidate within 1% of the optimum, which the centroid itself
// (near-)achieves and which varies smoothly with the features.
func LabelBest(tr *bfs.Trace, td, bu archsim.Arch, link archsim.Link, candidates []SwitchPoint) (SwitchPoint, error) {
	e, err := Evaluate(tr, td, bu, link, candidates)
	if err != nil {
		return SwitchPoint{}, err
	}
	_, best := e.Best()
	var sumLogM, sumLogN float64
	count := 0
	for i, t := range e.Times {
		if t <= best*1.01 {
			sumLogM += math.Log(e.Candidates[i].M)
			sumLogN += math.Log(e.Candidates[i].N)
			count++
		}
	}
	return SwitchPoint{
		M: math.Exp(sumLogM / float64(count)),
		N: math.Exp(sumLogN / float64(count)),
	}, nil
}
