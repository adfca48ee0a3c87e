package bfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"crossbfs/internal/fault"
	"crossbfs/internal/obs"
)

// chaosSchedules is the injection matrix: single crash, staggered
// double crash, a lagging straggler, dropped collectives, and the
// compound case. Every entry must leave the traversal equivalent to
// the serial reference after recovery.
var chaosSchedules = []string{
	"rankcrash:1@2",
	"rankcrash:0@1",
	"rankcrash:0@2;rankcrash:1@3",
	"ranklag:1x3@2",
	"exchdrop:0.3",
	"rankcrash:1@2;exchdrop:0.2",
}

// mustParseFaults builds a fresh schedule per run: a Schedule is
// stateful and single-owner, so runs never share one.
func mustParseFaults(t *testing.T, spec string, seed uint64) *fault.Schedule {
	t.Helper()
	s, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return s
}

// TestShardedChaosMatchesSerial is the chaos equivalence property: for
// every graph family, rank count, and fault schedule, the partitioned
// engine under injection either recovers onto survivors or escalates
// with a typed error — and when it completes, its level map and
// invariant-checked parent tree agree with the serial reference
// exactly as a clean run's would. Workspaces are reused across every
// failure path to check the pool hygiene too.
func TestShardedChaosMatchesSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	for name, g := range shardedTestGraphs(t) {
		src := firstUsable(t, g)
		want, err := SerialEngine().Run(g, src, nil)
		if err != nil {
			t.Fatalf("%s: Serial: %v", name, err)
		}
		ws := NewWorkspace(g.NumVertices())
		for _, ranks := range []int{2, 4, 8} {
			for _, spec := range chaosSchedules {
				label := fmt.Sprintf("%s/r%d/%s", name, ranks, spec)
				e := NewShardedEngine(ranks, 14, 24)
				e.SetFaults(mustParseFaults(t, spec, 7))
				r, err := e.RunObserved(context.Background(), g, src, ws, nil)
				if err != nil {
					var fe *fault.Error
					if !errors.As(err, &fe) {
						t.Fatalf("%s: error is %v (%T), want *fault.Error", label, err, err)
					}
					continue
				}
				mustInvariants(t, label, g, r)
				sameTraversal(t, label, want, r)
				crashes, hasDrop := chaosExpectedLost(spec, ranks, r.NumLevels())
				if hasDrop {
					// Exhausted exchange retries fence ranks too, so
					// scheduled crashes are only a lower bound.
					if r.Recovery.RanksLost < crashes || r.Recovery.RanksLost >= ranks {
						t.Errorf("%s: RanksLost = %d, want in [%d,%d)", label, r.Recovery.RanksLost, crashes, ranks)
					}
				} else if r.Recovery.RanksLost != crashes {
					t.Errorf("%s: RanksLost = %d, want %d", label, r.Recovery.RanksLost, crashes)
				}
			}
		}
	}
	settleGoroutines(t, "chaos matrix", base)
}

// chaosExpectedLost counts the scheduled crashes that could actually
// fire: the rank must exist at this configuration, and the crash step
// must not lie past the traversal's last level (a star graph finishes
// in two steps, so a crash at step 3 never triggers). It also reports
// whether the schedule drops exchanges, which can fence further ranks
// nondeterministically.
func chaosExpectedLost(spec string, ranks, levels int) (crashes int, hasDrop bool) {
	s, _ := fault.Parse(spec, 7)
	for _, ev := range s.Events {
		switch ev.Kind {
		case fault.RankCrash:
			if ev.Rank < ranks && ev.Step <= levels {
				crashes++
			}
		case fault.ExchangeDrop:
			hasDrop = true
		}
	}
	return crashes, hasDrop
}

// TestShardedChaosDeterministicReplay pins the replayability contract:
// two runs under the same seeded schedule produce byte-identical
// parent and level arrays and identical recovery stats — the property
// that makes a chaos failure reproducible from its seed. On the path
// graph the parent tree is unique, so it is also compared entry for
// entry against the serial reference.
func TestShardedChaosDeterministicReplay(t *testing.T) {
	// The path graph runs ~300 collective rounds, enough for a
	// sustained drop probability to eventually exhaust every rank's
	// retries — correct escalation, but not the replay scenario — so
	// its schedules stay drop-free.
	graphs := map[string]struct {
		uniqueParents bool
		specs         []string
	}{
		"rmat10": {false, []string{"rankcrash:1@2", "rankcrash:1@2;exchdrop:0.25"}},
		"path":   {true, []string{"rankcrash:1@2", "rankcrash:1@2;rankcrash:0@5"}},
	}
	all := shardedTestGraphs(t)
	for name, tc := range graphs {
		g := all[name]
		uniqueParents := tc.uniqueParents
		src := firstUsable(t, g)
		want, err := SerialEngine().Run(g, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range tc.specs {
			label := name + "/" + spec
			run := func() *Result {
				e := NewShardedEngine(4, 14, 24)
				e.SetFaults(mustParseFaults(t, spec, 42))
				r, err := e.Run(g, src, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return r
			}
			a, b := run(), run()
			if a.Recovery != b.Recovery {
				t.Fatalf("%s: recovery stats diverged between same-seed runs: %+v vs %+v",
					label, a.Recovery, b.Recovery)
			}
			for v := range a.Parent {
				if a.Parent[v] != b.Parent[v] {
					t.Fatalf("%s: Parent[%d] diverged between same-seed runs: %d vs %d",
						label, v, a.Parent[v], b.Parent[v])
				}
				if a.Level[v] != b.Level[v] {
					t.Fatalf("%s: Level[%d] diverged between same-seed runs", label, v)
				}
			}
			sameTraversal(t, label, want, a)
			if a.Recovery.RanksLost == 0 {
				t.Fatalf("%s: schedule injected no crash", label)
			}
			if uniqueParents {
				for v := range want.Parent {
					if a.Parent[v] != want.Parent[v] {
						t.Fatalf("%s: Parent[%d] = %d, serial %d (path parents are unique)",
							label, v, a.Parent[v], want.Parent[v])
					}
				}
			}
		}
	}
}

// TestShardedChaosTotalCollapse checks the last rung: when no survivor
// set can finish — every rank crashed, or every exchange attempt
// dropped — the engine fails with a typed *fault.Error instead of
// hanging or panicking, all rank goroutines unwind, and the workspace
// comes back clean enough for an immediate fault-free run.
func TestShardedChaosTotalCollapse(t *testing.T) {
	base := runtime.NumGoroutine()
	g := testRMAT(t, 10, 8, 11)
	src := firstUsable(t, g)
	want, err := SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(g.NumVertices())
	for _, spec := range []string{
		"rankcrash:0@1;rankcrash:1@1",
		"rankcrash:0@1;rankcrash:1@2",
		"exchdrop:1",
	} {
		e := NewShardedEngine(2, 14, 24)
		e.SetFaults(mustParseFaults(t, spec, 3))
		_, err := e.Run(g, src, ws)
		if err == nil {
			t.Fatalf("%s: total collapse completed, want *fault.Error", spec)
		}
		var fe *fault.Error
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error is %v (%T), want *fault.Error", spec, err, err)
		}
		settleGoroutines(t, spec, base)
		// The workspace survives the failure path: a clean run reusing
		// it must still match serial.
		clean := NewShardedEngine(2, 14, 24)
		r, err := clean.Run(g, src, ws)
		if err != nil {
			t.Fatalf("%s: clean rerun on reused workspace: %v", spec, err)
		}
		mustInvariants(t, spec+"/rerun", g, r)
		sameTraversal(t, spec+"/rerun", want, r)
		if r.Recovery != (RecoveryStats{}) {
			t.Fatalf("%s: clean rerun reports recovery work %+v", spec, r.Recovery)
		}
	}
}

// TestShardedChaosWatchdogFencesLaggard drives the barrier watchdog:
// with a lag long past the stall timeout, the collective detects the
// parked straggler, fences it as failed, and the survivors finish the
// traversal correctly — a detected failure, not a hang.
func TestShardedChaosWatchdogFencesLaggard(t *testing.T) {
	base := runtime.NumGoroutine()
	g := testRMAT(t, 9, 8, 5)
	src := firstUsable(t, g)
	want, err := SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewShardedEngine(4, 14, 24)
	e.SetFaults(mustParseFaults(t, "ranklag:2x50@2", 1))
	e.SetFTOptions(FTOptions{
		LagUnit:      2 * time.Millisecond,  // 50x2ms sleep...
		StallTimeout: 20 * time.Millisecond, // ...against a 20ms deadline
		WatchdogPoll: time.Millisecond,
	})
	r, err := e.Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, "watchdog", g, r)
	sameTraversal(t, "watchdog", want, r)
	if r.Recovery.RanksLost != 1 {
		t.Fatalf("RanksLost = %d, want 1 (the fenced straggler)", r.Recovery.RanksLost)
	}
	settleGoroutines(t, "watchdog", base)
}

// TestShardedChaosRecoveryEvents checks the recovery telemetry end to
// end: the recorder sees rank_lost/recover/checkpoint events that
// agree with Result.Recovery, and the same stream round-trips through
// TraceWriter into a trace that ValidateTrace accepts and summarizes
// with matching counts.
func TestShardedChaosRecoveryEvents(t *testing.T) {
	g := testRMAT(t, 10, 8, 11)
	src := firstUsable(t, g)
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	rec := &lockedRecorder{}
	e := NewShardedEngine(4, 14, 24)
	e.SetFaults(mustParseFaults(t, "rankcrash:1@2;rankcrash:2@3", 7))
	r, err := e.RunObserved(context.Background(), g, src, nil, obs.Multi(rec, tw))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var lost, recoverStart, recoverEnd, checkpoints int
	for _, ev := range rec.events {
		switch ev.Kind {
		case obs.KindRankLost:
			lost++
			if ev.Workers < 1 {
				t.Errorf("rank_lost event reports %d survivors", ev.Workers)
			}
		case obs.KindRecoverStart:
			recoverStart++
		case obs.KindRecoverEnd:
			recoverEnd++
		case obs.KindCheckpoint:
			checkpoints++
			if ev.Bytes < 0 || ev.Grains < 1 {
				t.Errorf("checkpoint event with bytes=%d grains=%d", ev.Bytes, ev.Grains)
			}
		}
	}
	if lost != r.Recovery.RanksLost {
		t.Errorf("saw %d rank_lost events, Result.Recovery says %d", lost, r.Recovery.RanksLost)
	}
	if lost != 2 {
		t.Errorf("rank_lost events = %d, want 2", lost)
	}
	if recoverStart == 0 || recoverStart != recoverEnd {
		t.Errorf("recover events unbalanced: %d starts, %d ends", recoverStart, recoverEnd)
	}
	if checkpoints == 0 {
		t.Error("no checkpoint events recorded")
	}
	sum, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if sum.RanksLost != lost {
		t.Errorf("trace summary RanksLost = %d, recorder saw %d", sum.RanksLost, lost)
	}
	if sum.Recoveries != recoverEnd {
		t.Errorf("trace summary Recoveries = %d, recorder saw %d ends", sum.Recoveries, recoverEnd)
	}
	if sum.Checkpoints != checkpoints {
		t.Errorf("trace summary Checkpoints = %d, recorder saw %d", sum.Checkpoints, checkpoints)
	}
}

// TestShardedChaosContextCancel checks that cancellation still wins
// under injection: a context canceled mid-traversal surfaces as the
// context's error (not a fault), and every rank plus the watchdog
// unwinds.
func TestShardedChaosContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	g := testRMAT(t, 10, 8, 11)
	src := firstUsable(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewShardedEngine(4, 14, 24)
	e.SetFaults(mustParseFaults(t, "ranklag:1x2@1;exchdrop:0.2", 7))
	_, err := e.RunObserved(ctx, g, src, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, "chaos cancel", base)
}
