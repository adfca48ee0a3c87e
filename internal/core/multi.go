package core

import (
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

// Multi-coprocessor extension. The paper motivates heterogeneous BFS
// with Tianhe-2, whose nodes carry *three* Xeon Phis (§I), but
// evaluates a single coprocessor; this extends Algorithm 3 to k
// coprocessors: the host still runs the early top-down levels, and the
// bottom-up middle levels are vertex-partitioned across all
// coprocessors, which exchange their next-frontier bitmaps after every
// level (ring all-reduce over the interconnect).
//
// The cost model assumes balanced partitions (vertex ranges of a
// permuted R-MAT graph are statistically uniform): each device prices
// 1/k of the scans and candidates with 1/k of the parallelism, and the
// level ends with an all-reduce that moves 2(k-1)/k of the frontier
// bitmap per device. The single-vertex critical path is NOT divided —
// the device owning the longest scan still walks it alone.
type MultiCross struct {
	Host         archsim.Arch
	Coprocessors []archsim.Arch
	M1, N1       float64 // host boundary (as in CrossPlan)
	M2, N2       float64 // on-coprocessor TD/BU switching
}

// Name identifies the plan in reports, e.g. "CPUTD+3xMICCB".
func (p MultiCross) Name() string {
	if len(p.Coprocessors) == 0 {
		return p.Host.Kind.String() + "TD"
	}
	return fmt.Sprintf("%sTD+%dx%sCB",
		p.Host.Kind, len(p.Coprocessors), p.Coprocessors[0].Kind)
}

// Validate reports whether the plan is usable.
func (p MultiCross) Validate() error {
	if len(p.Coprocessors) == 0 {
		return fmt.Errorf("core: multi-cross plan needs at least one coprocessor")
	}
	if p.M1 <= 0 || p.N1 <= 0 || p.M2 <= 0 || p.N2 <= 0 {
		return fmt.Errorf("core: multi-cross thresholds must be positive")
	}
	return nil
}

// Devices implements DeviceLister.
func (p MultiCross) Devices() []archsim.Arch {
	return append([]archsim.Arch{p.Host}, p.Coprocessors...)
}

// partitionStats scales one level's work counts to a 1/k vertex
// partition under the balanced-partition assumption.
func partitionStats(s bfs.LevelStats, k int) bfs.LevelStats {
	if k <= 1 {
		return s
	}
	out := s
	kk := int64(k)
	out.FrontierVertices = (s.FrontierVertices + kk - 1) / kk
	out.FrontierEdges = (s.FrontierEdges + kk - 1) / kk
	out.Discovered = (s.Discovered + kk - 1) / kk
	out.UnvisitedVertices = (s.UnvisitedVertices + kk - 1) / kk
	out.UnvisitedEdges = (s.UnvisitedEdges + kk - 1) / kk
	out.BottomUpScans = (s.BottomUpScans + kk - 1) / kk
	// MaxScan and MaxFrontierDegree stay: one device owns the longest
	// list. GraphVertices stays: bitmaps are replicated, not split.
	return out
}

// SimulateMulti prices the multi-coprocessor plan against a trace.
func SimulateMulti(tr *bfs.Trace, plan MultiCross, link archsim.Link) (*Timing, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	k := len(plan.Coprocessors)
	t := &Timing{
		Plan:         plan.Name(),
		Steps:        make([]StepTiming, 0, len(tr.Steps)),
		EdgesVisited: tr.EdgesVisited,
	}
	bitmapBytes := (tr.NumVertices + 7) / 8
	entered := false
	discoveredSinceHost := int64(1)

	small := func(s bfs.LevelStats, m, n float64) bool {
		return float64(s.FrontierEdges) < float64(tr.NumEdges)/m &&
			float64(s.FrontierVertices) < float64(tr.NumVertices)/n
	}

	for _, s := range tr.Steps {
		var st StepTiming
		st.Step = s.Step
		switch {
		case !entered && small(s, plan.M1, plan.N1):
			st.ArchName = plan.Host.Name
			st.Kind = plan.Host.Kind
			st.Dir = bfs.TopDown
			st.Kernel = plan.Host.TopDownTime(s)
			discoveredSinceHost += s.Discovered
		default:
			if !entered {
				// Broadcast the traversal state to every coprocessor.
				st.Transfer = float64(k) * link.TransferTime(2*bitmapBytes+8*discoveredSinceHost)
				entered = true
			}
			if small(s, plan.M2, plan.N2) {
				// Small frontiers stay on one coprocessor: splitting
				// launch-bound work only multiplies overheads.
				cop := plan.Coprocessors[0]
				st.ArchName = cop.Name
				st.Kind = cop.Kind
				st.Dir = bfs.TopDown
				st.Kernel = cop.TopDownTime(s)
			} else {
				// Partitioned bottom-up: the level takes as long as
				// the slowest device plus the frontier all-reduce.
				part := partitionStats(s, k)
				var worst float64
				for _, cop := range plan.Coprocessors {
					if tt := cop.BottomUpTime(part); tt > worst {
						worst = tt
					}
				}
				st.ArchName = plan.Name()
				st.Kind = plan.Coprocessors[0].Kind
				st.Dir = bfs.BottomUp
				st.Kernel = worst
				if k > 1 {
					st.Transfer += link.TransferTime(2 * bitmapBytes * int64(k-1) / int64(k))
				}
			}
		}
		t.Steps = append(t.Steps, st)
		t.Total += st.Kernel + st.Transfer
		t.Transfers += st.Transfer
	}
	return t, nil
}
