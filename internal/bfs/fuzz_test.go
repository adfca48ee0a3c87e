package bfs

import (
	"context"
	"fmt"
	"math"
	"testing"

	"crossbfs/internal/invariant"
)

// mnReference recomputes the Fig. 4 switching rule from scratch with
// explicit normalization, independently of MN.Choose, so the fuzzer
// can catch a divergence between the implementation and the paper's
// published rule.
func mnReference(m, n float64, s StepInfo) Direction {
	if !(m > 0) {
		m = DefaultM
	}
	if !(n > 0) {
		n = DefaultN
	}
	if float64(s.FrontierEdges) >= float64(s.TotalEdges)/m ||
		float64(s.FrontierVertices) >= float64(s.TotalVertices)/n {
		return BottomUp
	}
	return TopDown
}

// FuzzHeuristicSwitch fuzzes the hybrid switching policies over
// arbitrary (including degenerate) parameters and frontier traces:
//
//   - Choose must return a valid Direction, never panic, and for MN it
//     must match an independently computed normalized Fig. 4 rule.
//   - Non-positive/NaN M or N must behave exactly like the
//     DefaultM/DefaultN fallback (the M/N=0 guard).
//   - Driven through a real traversal, the policy must yield a valid
//     direction sequence: step 1 expands the single-vertex source
//     frontier, so on a connected seed it is top-down unless the
//     normalized thresholds are genuinely crossed already (tiny
//     graphs), and never an unknown direction. Its bottom-up steps
//     must test exactly the adjacency entries hubScans recounts.
func FuzzHeuristicSwitch(f *testing.F) {
	f.Add(64.0, 64.0, uint64(1), []byte{1, 10, 200, 50, 3})
	f.Add(0.0, 0.0, uint64(2), []byte{1, 1, 1})
	f.Add(-3.5, math.Inf(1), uint64(3), []byte{255, 0, 255})
	f.Add(math.NaN(), 2.0, uint64(4), []byte{4, 4, 4, 4})
	f.Add(1e-300, 1e300, uint64(5), []byte{7})

	f.Fuzz(func(t *testing.T, m, n float64, seed uint64, trace []byte) {
		policy := MN{M: m, N: n}
		fallback := MN{M: DefaultM, N: DefaultN}
		degenerate := !(m > 0) && !(n > 0)

		// Synthetic trace: each byte pair becomes a frontier snapshot
		// against fixed graph totals, plus hand-picked extremes.
		const totalV, totalE = 1 << 20, 16 << 20
		infos := []StepInfo{
			{Step: 1, FrontierVertices: 1, FrontierEdges: 0, UnvisitedVertices: totalV - 1, TotalVertices: totalV, TotalEdges: totalE},
			{Step: 2, FrontierVertices: totalV, FrontierEdges: totalE, TotalVertices: totalV, TotalEdges: totalE},
			{Step: 3, TotalVertices: 0, TotalEdges: 0}, // empty graph guard
		}
		for i := 0; i+1 < len(trace) && i < 64; i += 2 {
			fv := int64(trace[i]) * (totalV / 256)
			fe := int64(trace[i+1]) * (totalE / 256)
			infos = append(infos, StepInfo{
				Step:              2 + i/2,
				FrontierVertices:  fv,
				FrontierEdges:     fe,
				UnvisitedVertices: totalV - fv,
				TotalVertices:     totalV,
				TotalEdges:        totalE,
			})
		}
		for _, info := range infos {
			d := policy.Choose(info)
			if d != TopDown && d != BottomUp {
				t.Fatalf("MN{%g,%g}.Choose(%+v) = %v, not a valid direction", m, n, info, d)
			}
			if want := mnReference(m, n, info); d != want {
				t.Fatalf("MN{%g,%g}.Choose(%+v) = %s, reference rule says %s", m, n, info, d, want)
			}
			if degenerate {
				if want := fallback.Choose(info); d != want {
					t.Fatalf("degenerate MN{%g,%g} chose %s, DefaultM/DefaultN fallback says %s", m, n, d, want)
				}
			}
		}

		// Stateful policies must also never emit an invalid direction,
		// whatever their parameters.
		ab := &AlphaBeta{Alpha: m, Beta: n}
		hh := &HongHybrid{Threshold: m}
		for _, info := range infos {
			if d := ab.Choose(info); d != TopDown && d != BottomUp {
				t.Fatalf("AlphaBeta{%g,%g}.Choose = %v", m, n, d)
			}
			if d := hh.Choose(info); d != TopDown && d != BottomUp {
				t.Fatalf("HongHybrid{%g}.Choose = %v", m, d)
			}
		}

		// End-to-end: drive a real hybrid traversal on a small connected
		// graph and check the recorded direction sequence.
		g, src, err := randomGraph(seed)
		if err != nil {
			t.Skip("graph build rejected fuzz input")
		}
		r, err := Run(context.Background(), g, src, Options{Policy: policy, CheckInvariants: true}, nil)
		if !(m > 0) || !(n > 0) {
			// Run validates up front; degenerate thresholds must be
			// rejected there, not limp through on the fallback.
			if err == nil {
				t.Fatalf("Run accepted degenerate MN{%g,%g}", m, n)
			}
			return
		}
		if err != nil {
			t.Fatalf("Run(MN{%g,%g}): %v", m, n, err)
		}
		if err := invariant.Check(g, src, r.Parent, r.Level); err != nil {
			t.Fatalf("invariants after hybrid run: %v", err)
		}
		if visited, traversed := countFromLevels(g, r); r.VisitedCount != visited || r.TraversedEdges != traversed {
			t.Fatalf("counters: VisitedCount %d, recount %d; TraversedEdges %d, recount %d",
				r.VisitedCount, visited, r.TraversedEdges, traversed)
		}
		checkScans(t, fmt.Sprintf("MN{%g,%g}", m, n), g, r)
		// Replay the trace: every recorded direction must match what a
		// fresh policy would choose for that step's frontier, and step 1
		// (frontier = {source}) must follow the rule exactly — bottom-up
		// there is only legal if the thresholds are genuinely crossed by
		// a single vertex, which on non-trivial graphs means top-down.
		tr, err := TraceFrom(context.Background(), g, src, nil, nil)
		if err != nil {
			t.Fatalf("TraceFrom: %v", err)
		}
		if len(tr.Steps) != len(r.Directions) {
			t.Fatalf("trace has %d steps, run recorded %d directions", len(tr.Steps), len(r.Directions))
		}
		for i, s := range tr.Steps {
			info := StepInfo{
				Step:             i + 1,
				FrontierVertices: s.FrontierVertices,
				FrontierEdges:    s.FrontierEdges,
				TotalVertices:    s.GraphVertices,
				TotalEdges:       g.NumEdges(),
			}
			if want := mnReference(m, n, info); r.Directions[i] != want {
				t.Fatalf("step %d: recorded %s, rule says %s (info %+v)", i+1, r.Directions[i], want, info)
			}
		}
	})
}
