package bfs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/part"
)

// latticeGraph returns a side×side 4-neighbor grid — the high-diameter
// counterpoint to R-MAT's low-diameter skew, exercising many levels
// (and therefore many collective rounds) per traversal.
func latticeGraph(t testing.TB, side int) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	at := func(r, c int) int32 { return int32(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edges = append(edges, graph.Edge{From: at(r, c), To: at(r, c+1)})
			}
			if r+1 < side {
				edges = append(edges, graph.Edge{From: at(r, c), To: at(r+1, c)})
			}
		}
	}
	return mustBuild(t, side*side, edges)
}

// shardedTestGraphs is the cross-family equivalence corpus: skewed
// low-diameter R-MAT, a high-diameter lattice, and the degenerate
// path/star shapes that stress single-rank ownership of the whole
// frontier.
func shardedTestGraphs(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	return map[string]*graph.CSR{
		"rmat10":  testRMAT(t, 10, 8, 11),
		"rmat9":   testRMAT(t, 9, 16, 5),
		"lattice": latticeGraph(t, 24),
		"path":    pathGraph(t, 300),
		"star":    starGraph(t, 300),
	}
}

// TestShardedMatchesSerial is the tentpole equivalence property: for
// every graph family and every rank count, the partitioned engine's
// level map and invariant-checked parent tree agree with the serial
// reference — remote claims, delta exchanges and the collective switch
// included.
func TestShardedMatchesSerial(t *testing.T) {
	for name, g := range shardedTestGraphs(t) {
		src := firstUsable(t, g)
		want, err := SerialEngine().Run(g, src, nil)
		if err != nil {
			t.Fatalf("%s: Serial: %v", name, err)
		}
		for _, ranks := range []int{1, 2, 3, 4, 8} {
			e := NewShardedEngine(ranks, 14, 24)
			ws := NewWorkspace(g.NumVertices())
			// Two traversals on the same workspace: the second also
			// proves the rank-state pool and exchange slots reset.
			for round := 0; round < 2; round++ {
				label := fmt.Sprintf("%s ranks=%d round=%d", name, ranks, round)
				got, err := e.Run(g, src, ws)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameTraversal(t, label, want, got)
				mustInvariants(t, label, g, got)
				if err := Validate(g, got); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(got.Exchanges) != got.NumLevels() {
					t.Fatalf("%s: %d exchange records for %d levels",
						label, len(got.Exchanges), got.NumLevels())
				}
			}
		}
	}
}

// TestShardedDirectionsMatchHybrid pins the collective direction
// switch: because the ranks all-reduce the exact global (|V|cq, |E|cq,
// unvisited) triple, the sharded engine must make the same per-level
// direction choices as the single-box hybrid under the same (M, N) —
// at every rank count. Its ranks run the hybrid's bottom-up kernel
// over their owned words, so each step's scan count, probes included,
// must equal the 1-worker hybrid's too.
func TestShardedDirectionsMatchHybrid(t *testing.T) {
	for name, g := range shardedTestGraphs(t) {
		src := firstUsable(t, g)
		for _, mn := range [][2]float64{{14, 24}, {64, 64}, {4, 4}} {
			want, err := Run(context.Background(), g, src, Options{Policy: MN{M: mn[0], N: mn[1]}, Workers: 1}, nil)
			if err != nil {
				t.Fatalf("%s: Hybrid: %v", name, err)
			}
			for _, ranks := range []int{1, 2, 3, 4, 8} {
				label := fmt.Sprintf("%s mn=%v ranks=%d", name, mn, ranks)
				got, err := NewShardedEngine(ranks, mn[0], mn[1]).Run(g, src, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(got.Directions) != len(want.Directions) {
					t.Fatalf("%s: %d levels, hybrid ran %d",
						label, len(got.Directions), len(want.Directions))
				}
				for i := range want.Directions {
					if got.Directions[i] != want.Directions[i] {
						t.Fatalf("%s: step %d ran %v, hybrid ran %v",
							label, i+1, got.Directions[i], want.Directions[i])
					}
				}
				sameScans(t, label, want, got)
			}
		}
	}
}

// sameScans requires got's per-step scan counts to equal want's.
func sameScans(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(got.StepScans) != len(want.StepScans) {
		t.Fatalf("%s: %d step-scan entries, hybrid has %d", label, len(got.StepScans), len(want.StepScans))
	}
	for i := range want.StepScans {
		if got.StepScans[i] != want.StepScans[i] {
			t.Fatalf("%s: step %d (%v) tested %d entries, hybrid tested %d",
				label, i+1, want.Directions[i], got.StepScans[i], want.StepScans[i])
		}
	}
}

// recountExchanges rebuilds a traversal's per-level exchange records
// from its level map and the partition layout alone. A bottom-up step
// s publishes, per rank, the compressed delta of the rank's words of
// level s-1. A top-down step s sends one 8-byte claim per edge from a
// level s-1 vertex to a vertex of another owner, and the owner applies
// a claim for each level-s vertex that no level s-1 vertex on its own
// owner reaches.
func recountExchanges(g *graph.CSR, l part.Layout, r *Result) []ExchangeStats {
	n := g.NumVertices()
	recs := make([]ExchangeStats, len(r.Directions))
	for i, dir := range r.Directions {
		step := int32(i + 1)
		ex := ExchangeStats{Step: i + 1, Dir: dir}
		if dir == BottomUp {
			front := bitmap.New(n)
			for v, lv := range r.Level {
				if lv == step-1 {
					front.Set(v)
				}
			}
			for rank := 0; rank < l.Ranks(); rank++ {
				loW, hiW := l.WordRange(rank)
				ex.FrontierBytes += int64(len(front.AppendDelta(nil, loW, hiW)))
			}
		} else {
			for v := int32(0); int(v) < n; v++ {
				switch r.Level[v] {
				case step - 1:
					for _, w := range g.Neighbors(v) {
						if l.Owner(w) != l.Owner(v) {
							ex.GhostSent++
						}
					}
				case step:
					local := false
					for _, u := range g.Neighbors(v) {
						local = local || (r.Level[u] == step-1 && l.Owner(u) == l.Owner(v))
					}
					if !local {
						ex.GhostApplied++
					}
				}
			}
			ex.GhostBytes = 8 * ex.GhostSent
		}
		recs[i] = ex
	}
	return recs
}

// TestShardedExchangeAccounting checks the per-level communication
// records: byte counts land on the matching direction, bottom-up
// levels exchange deltas only when there is more than one rank, and
// the exactly-once arbitration shows up as GhostApplied <= GhostSent
// with every applied claim accounted for by a discovered vertex.
func TestShardedExchangeAccounting(t *testing.T) {
	g := testRMAT(t, 10, 8, 11)
	src := firstUsable(t, g)
	for _, ranks := range []int{2, 4, 8} {
		r, err := NewShardedEngine(ranks, 14, 24).Run(g, src, nil)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		var applied int64
		for i, ex := range r.Exchanges {
			if ex.Step != i+1 || ex.Dir != r.Directions[i] {
				t.Fatalf("ranks=%d: exchange %d is (step %d, %v), want (step %d, %v)",
					ranks, i, ex.Step, ex.Dir, i+1, r.Directions[i])
			}
			switch ex.Dir {
			case TopDown:
				if ex.FrontierBytes != 0 {
					t.Errorf("ranks=%d step %d: top-down level reports %d frontier delta bytes",
						ranks, ex.Step, ex.FrontierBytes)
				}
			case BottomUp:
				if ex.GhostBytes != 0 || ex.GhostSent != 0 {
					t.Errorf("ranks=%d step %d: bottom-up level reports ghost traffic (%d bytes, %d sent)",
						ranks, ex.Step, ex.GhostBytes, ex.GhostSent)
				}
				if ex.FrontierBytes == 0 {
					t.Errorf("ranks=%d step %d: bottom-up level exchanged no delta bytes", ranks, ex.Step)
				}
			}
			if ex.GhostApplied > ex.GhostSent {
				t.Errorf("ranks=%d step %d: %d ghosts applied but only %d sent",
					ranks, ex.Step, ex.GhostApplied, ex.GhostSent)
			}
			applied += ex.GhostApplied
		}
		// Every applied ghost is a discovered vertex (minus source, which
		// is never a ghost), so the total can't exceed the visited count.
		if applied >= r.VisitedCount {
			t.Fatalf("ranks=%d: %d ghosts applied, only %d vertices visited", ranks, applied, r.VisitedCount)
		}
		// On a skewed R-MAT with several ranks some duplicate claims must
		// lose arbitration — that's the exactly-once mechanism working.
		var sent int64
		for _, ex := range r.Exchanges {
			sent += ex.GhostSent
		}
		if sent > 0 && applied == sent {
			t.Logf("ranks=%d: no duplicate ghost claims on this graph (sent=%d)", ranks, sent)
		}
	}
	// Every record is the recount from the level map and the layout:
	// these are the bytes the sharded experiment prices.
	for name, g := range shardedTestGraphs(t) {
		src := firstUsable(t, g)
		for _, ranks := range []int{2, 3, 4, 8} {
			r, err := NewShardedEngine(ranks, 14, 24).Run(g, src, nil)
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", name, ranks, err)
			}
			l, err := part.Partition(g, ranks)
			if err != nil {
				t.Fatal(err)
			}
			want := recountExchanges(g, l, r)
			if len(r.Exchanges) != len(want) {
				t.Fatalf("%s ranks=%d: %d exchange records for %d levels", name, ranks, len(r.Exchanges), len(want))
			}
			for i := range want {
				if r.Exchanges[i] != want[i] {
					t.Errorf("%s ranks=%d: step %d records %+v, recount %+v", name, ranks, i+1, r.Exchanges[i], want[i])
				}
			}
		}
	}
}

// lockedRecorder is a goroutine-safe event sink: sharded traversals
// emit per-rank exchange/ghost events concurrently.
type lockedRecorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *lockedRecorder) Event(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// TestShardedObservedEvents checks the telemetry contract: one
// collective decision per level, exchange start/end paired per rank
// per level, ghost updates only on top-down levels, and all per-rank
// indices in range.
func TestShardedObservedEvents(t *testing.T) {
	g := testRMAT(t, 10, 8, 11)
	src := firstUsable(t, g)
	const ranks = 4
	rec := &lockedRecorder{}
	e := NewShardedEngine(ranks, 14, 24)
	r, err := e.RunObserved(context.Background(), g, src, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	levels := r.NumLevels()
	var collectives, levelEvents, starts, ends, ghosts int
	type lane struct {
		step int32
		rank int32
	}
	open := make(map[lane]int)
	for _, ev := range rec.events {
		switch ev.Kind {
		case obs.KindCollective:
			collectives++
			if ev.Workers != ranks {
				t.Errorf("collective at step %d reports %d ranks, want %d", ev.Step, ev.Workers, ranks)
			}
		case obs.KindLevel:
			levelEvents++
		case obs.KindExchangeStart:
			starts++
			open[lane{ev.Step, ev.Index}]++
		case obs.KindExchangeEnd:
			ends++
			open[lane{ev.Step, ev.Index}]--
			if ev.Index < 0 || ev.Index >= ranks {
				t.Errorf("exchange end with rank %d out of [0,%d)", ev.Index, ranks)
			}
			if ev.Bytes < 0 {
				t.Errorf("exchange end at step %d reports negative bytes", ev.Step)
			}
		case obs.KindGhostUpdate:
			ghosts++
			if r.Directions[ev.Step-1] != TopDown {
				t.Errorf("ghost update on step %d, which ran %v", ev.Step, r.Directions[ev.Step-1])
			}
		}
	}
	if collectives != levels {
		t.Errorf("%d collective events for %d levels", collectives, levels)
	}
	if levelEvents != levels {
		t.Errorf("%d level events for %d levels", levelEvents, levels)
	}
	if starts != levels*ranks || ends != levels*ranks {
		t.Errorf("exchange events: %d starts, %d ends, want %d each", starts, ends, levels*ranks)
	}
	for l, n := range open {
		if n != 0 {
			t.Errorf("step %d rank %d: %+d unpaired exchange events", l.step, l.rank, n)
		}
	}
	var tdLevels int
	for _, d := range r.Directions {
		if d == TopDown {
			tdLevels++
		}
	}
	if ghosts != tdLevels*ranks {
		t.Errorf("%d ghost updates, want %d (td levels %d × ranks %d)", ghosts, tdLevels*ranks, tdLevels, ranks)
	}
}

// TestShardedCancelMidTraversal is the pool-hygiene property under
// cancellation: a traversal cancelled between collective rounds must
// return context.Canceled, terminate every rank goroutine before Run
// returns, and leave the workspace so clean the next traversal on it
// reproduces the serial reference.
func TestShardedCancelMidTraversal(t *testing.T) {
	g := testRMAT(t, 10, 8, 2)
	src := firstUsable(t, g)
	want, err := SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, ranks := range []int{1, 2, 4, 8} {
		e := NewShardedEngine(ranks, 14, 24)
		ws := NewWorkspace(g.NumVertices())
		// Cancel after a handful of Err() polls: with ranks polling once
		// per level each, this lands mid-traversal, often mid-exchange.
		for _, after := range []int{1, 2, 4} {
			ctx := newStepCancelCtx(after)
			r, err := e.RunObserved(ctx, g, src, ws, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("ranks=%d after=%d: err = %v, want context.Canceled", ranks, after, err)
			}
			if r != nil {
				t.Fatalf("ranks=%d after=%d: cancelled traversal returned a result", ranks, after)
			}
			settleGoroutines(t, fmt.Sprintf("sharded ranks=%d", ranks), base)
		}
		got, err := e.Run(g, src, ws)
		if err != nil {
			t.Fatalf("ranks=%d: post-cancel reuse: %v", ranks, err)
		}
		sameTraversal(t, fmt.Sprintf("sharded ranks=%d post-cancel reuse", ranks), want, got)
	}
	settleGoroutines(t, "sharded all ranks", base)
}

// TestShardedPolicyPanicContained checks fault containment across the
// collective: a panic inside the leader's policy call must surface as
// a *PanicError from Run with every rank goroutine released (a naive
// barrier would deadlock the other ranks forever).
func TestShardedPolicyPanicContained(t *testing.T) {
	g := testRMAT(t, 9, 8, 2)
	src := firstUsable(t, g)
	base := runtime.NumGoroutine()
	e := &Sharded{ranks: 4, name: "boom", policy: PolicyFunc(func(s StepInfo) Direction {
		if s.Step == 3 {
			panic("collective kaboom")
		}
		return TopDown
	})}
	ws := NewWorkspace(g.NumVertices())
	_, err := e.Run(g, src, ws)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "collective kaboom" {
		t.Errorf("PanicError.Value = %v, want %q", pe.Value, "collective kaboom")
	}
	settleGoroutines(t, "sharded panic", base)

	// Workspace survives pool-clean.
	want, err := SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewShardedEngine(4, 14, 24).Run(g, src, ws)
	if err != nil {
		t.Fatalf("post-panic reuse: %v", err)
	}
	sameTraversal(t, "sharded post-panic reuse", want, got)
}

// TestShardedRejectsBadInputs covers the validation edges: bad source,
// non-positive rank count, invalid (M, N).
func TestShardedRejectsBadInputs(t *testing.T) {
	g := pathGraph(t, 8)
	if _, err := NewShardedEngine(2, 14, 24).Run(g, 99, nil); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := NewShardedEngine(0, 14, 24).Run(g, 0, nil); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := NewShardedEngine(2, -1, 24).Run(g, 0, nil); err == nil {
		t.Error("negative M accepted")
	}
}

// TestShardedName pins the engine's self-description (reports and
// benchmark labels key on it).
func TestShardedName(t *testing.T) {
	if got, want := NewShardedEngine(4, 14, 24).Name(), "sharded(4,hybrid(14,24))"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
}
