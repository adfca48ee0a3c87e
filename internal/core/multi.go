package core

import (
	"fmt"
	"math"

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

// SimulateMulti prices the multi-coprocessor plan against a trace. It
// takes the clean timeline of the one-coprocessor CrossPlan — the same
// placements, so one coprocessor prices exactly like CrossPlan — and
// rewrites what k devices change: the one handoff becomes a k-way
// broadcast of the traversal state, and each bottom-up level takes as
// long as the slowest partition plus the frontier all-reduce. Small
// top-down frontiers stay on the first coprocessor: splitting
// launch-bound work only multiplies overheads.
func SimulateMulti(tr *bfs.Trace, plan MultiCross, link archsim.Link) (*Timing, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	k := len(plan.Coprocessors)
	t := Simulate(tr, CrossPlan{
		Host: plan.Host, Coprocessor: plan.Coprocessors[0],
		M1: plan.M1, N1: plan.N1, M2: plan.M2, N2: plan.N2,
	}, link)
	t.Plan = plan.Name()
	t.Total, t.Transfers = 0, 0
	bitmapBytes := (tr.NumVertices + 7) / 8

	for i := range t.Steps {
		st := &t.Steps[i]
		st.Transfer *= float64(k) // nonzero only at the handoff
		if st.Dir == bfs.BottomUp {
			part := partitionStats(tr.Steps[i], k)
			st.Kernel = 0
			for _, cop := range plan.Coprocessors {
				st.Kernel = math.Max(st.Kernel, cop.BottomUpTime(part))
			}
			st.ArchName = t.Plan
			if k > 1 {
				st.Transfer += link.TransferTime(2 * bitmapBytes * int64(k-1) / int64(k))
			}
		}
		t.Total += st.Kernel + st.Transfer
		t.Transfers += st.Transfer
	}
	return t, nil
}
