package core

import (
	"math"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

// Lazy-transfer variant of the simulator. The blocking part of a
// cross-architecture handoff is only the state the next kernel reads
// before it can start: the frontier and visited bitmaps. The bulk —
// predecessor/level entries discovered on the source device — is not
// read by subsequent kernels at all (only claimed bits are), so a real
// implementation can stream it asynchronously behind the following
// kernels and absorb its cost into otherwise idle link time.
//
// SimulateLazy prices exactly that: bitmap bytes block, predecessor
// bytes overlap with subsequent kernel time and only surface as a
// stall if a level finishes before the stream drains. This quantifies
// how much of the naive Simulate's transfer penalty a smarter runtime
// could hide (BenchmarkAblationLazyTransfers). It re-prices only the
// handoffs of Simulate's clean timeline.
func SimulateLazy(tr *bfs.Trace, plan Plan, link archsim.Link) *Timing {
	t := Simulate(tr, plan, link)
	t.Plan += "+lazy"
	t.Total, t.Transfers = 0, 0

	discoveredSinceSwitch := int64(1)
	bitmapBytes := (tr.NumVertices + 7) / 8
	pendingAsync := 0.0 // seconds of background streaming still in flight

	for i := range t.Steps {
		st := &t.Steps[i]
		if i > 0 && t.Steps[i-1].ArchName != st.ArchName {
			// The in-flight stream must drain before a new transfer
			// can start on the same link. Blocking: bitmaps. Async:
			// predecessor entries.
			st.Transfer = pendingAsync + link.TransferTime(2*bitmapBytes)
			pendingAsync = link.TransferTime(8 * discoveredSinceSwitch)
			discoveredSinceSwitch = 0
		}
		discoveredSinceSwitch += tr.Steps[i].Discovered

		// Background streaming drains while the kernel runs.
		pendingAsync = math.Max(pendingAsync-st.Kernel, 0)

		t.Total += st.Kernel + st.Transfer
		t.Transfers += st.Transfer
	}
	// A stream still in flight at the end must drain before results
	// are usable.
	t.Total += pendingAsync
	t.Transfers += pendingAsync
	return t
}
