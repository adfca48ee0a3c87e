package core

import (
	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

// StepTiming is the priced outcome of one expansion step — one row of
// the paper's Table IV.
type StepTiming struct {
	Step     int
	ArchName string
	Kind     archsim.Kind
	Dir      bfs.Direction
	// Kernel is the simulated seconds spent expanding the level.
	Kernel float64
	// Transfer is the simulated seconds moving state onto this step's
	// device (nonzero only when the previous step ran elsewhere).
	Transfer float64
}

// Timing is the priced outcome of a whole traversal.
type Timing struct {
	Plan         string
	Steps        []StepTiming
	Total        float64 // seconds, kernels + transfers
	Transfers    float64 // seconds spent on the link
	EdgesVisited int64   // adjacency entries of the reachable component

	// Degradation report, filled only by the resilient executor
	// (SimulateResilient / ExecuteResilient); all zero on a clean run.
	Retries int           // dropped transfers re-attempted
	Replans int           // placement changes forced by faults
	Faults  []FaultRecord // every fault event and the ladder rung taken
}

// Degraded reports whether any fault altered the execution.
func (t *Timing) Degraded() bool {
	return t.Retries > 0 || t.Replans > 0 || len(t.Faults) > 0
}

// TEPS returns traversed edges per second, the Graph 500 metric
// (Table I). Each undirected edge of the reachable component is
// counted once, per the Graph 500 convention.
func (t *Timing) TEPS() float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.EdgesVisited) / 2 / t.Total
}

// GTEPS returns TEPS in billions (the unit of the paper's Table VI).
func (t *Timing) GTEPS() float64 { return t.TEPS() / 1e9 }

// Simulate prices a plan against a traversal trace. Because level
// sets are direction-independent, this replays any plan without
// re-traversing the graph: each step charges the placed device for its
// direction's work, plus a link transfer whenever the placement moves
// between devices.
//
// The transfer ships the frontier bitmap, the visited bitmap and the
// predecessor/level entries discovered since the last time the target
// device held the traversal — so a late (mistuned) handoff pays for
// everything discovered so far, which is the mechanism behind the
// paper's 695x best-to-worst spread for cross-architecture switching.
func Simulate(tr *bfs.Trace, plan Plan, link archsim.Link) *Timing {
	stepper := plan.Begin()
	t := &Timing{
		Plan:         plan.Name(),
		Steps:        make([]StepTiming, 0, len(tr.Steps)),
		EdgesVisited: tr.EdgesVisited,
	}
	prevArch := ""
	discoveredSinceSwitch := int64(1) // the source itself
	bitmapBytes := (tr.NumVertices + 7) / 8

	for _, s := range tr.Steps {
		pl := stepper.Place(bfs.StepInfo{
			Step:              s.Step,
			FrontierVertices:  s.FrontierVertices,
			FrontierEdges:     s.FrontierEdges,
			UnvisitedVertices: s.UnvisitedVertices,
			TotalVertices:     tr.NumVertices,
			TotalEdges:        tr.NumEdges,
		})
		st := StepTiming{
			Step:     s.Step,
			ArchName: pl.Arch.Name,
			Kind:     pl.Arch.Kind,
			Dir:      pl.Dir,
			Kernel:   pl.Arch.StepTime(pl.Dir, s),
		}
		if prevArch != "" && prevArch != pl.Arch.Name {
			st.Transfer = link.TransferTime(2*bitmapBytes + 8*discoveredSinceSwitch)
			discoveredSinceSwitch = 0
		}
		prevArch = pl.Arch.Name
		discoveredSinceSwitch += s.Discovered

		t.Steps = append(t.Steps, st)
		t.Total += st.Kernel + st.Transfer
		t.Transfers += st.Transfer
	}
	return t
}
