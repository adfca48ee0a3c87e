package core

import (
	"context"
	"fmt"
	"math"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/fault"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// Resilient execution: the degradation ladder. A production
// heterogeneous node can lose a coprocessor mid-traversal or see its
// interconnect turn flaky; the paper's single trusted testbed never
// does, but the ROADMAP's north star (a deployable cross-architecture
// BFS) has to survive it. The ladder is
//
//	retry    — a dropped transfer is re-attempted with capped
//	           exponential backoff (the fault may be transient);
//	replan   — a crashed device's steps, or a migration whose
//	           retries are exhausted, move to a surviving device
//	           (preferring the CPU, the general-purpose fallback);
//	fail     — when no planned device survives, execution stops with
//	           a typed *fault.Error.
//
// Every rung is visible in the Timing (Retries, Replans, Faults), so
// callers can tell a clean run from a degraded one.

// ResilientOptions configure fault-tolerant execution. Dropped
// transfers follow the retry policy in package fault (MaxRetries,
// RetryBackoff, BackoffCap).
type ResilientOptions struct {
	// Schedule is the fault injection registry; nil or empty injects
	// nothing, making SimulateResilient equivalent to Simulate.
	Schedule *fault.Schedule
	// Workers is the traversal parallelism for ExecuteResilient;
	// 0 means GOMAXPROCS, 1 forces the serial kernels.
	Workers int
	// Recorder receives the execution's telemetry (see internal/obs):
	// the plan timeline (sim steps, handoffs) plus one retry / replan /
	// fault event mirroring every FaultRecord the ladder writes. In
	// ExecuteResilient the real traversal's wall-clock events flow to
	// the same recorder. nil disables telemetry.
	Recorder obs.Recorder
	// TraversalID, when nonzero, is the event-group ID the execution's
	// telemetry is stamped with instead of drawing a fresh one. Callers
	// that run a real traversal and then price it (ExecuteResilient, or
	// a RunMany dispatcher replaying through the ladder) set it so the
	// traversal's wall-clock events and the ladder's retry/replan
	// mirror share one ID — the invariant obs.Sampler relies on to keep
	// or drop the whole run with a single decision.
	TraversalID uint64
}

// FaultRecord documents one fault event the executor encountered and
// what the degradation ladder did about it.
type FaultRecord struct {
	Step   int
	Kind   fault.Kind
	Device string
	// Action is the ladder rung taken: "retry", "recover" (sharded
	// survivors absorbing a dead rank), "replan", "slowdown", or
	// "fatal".
	Action string
	Detail string
}

// String renders the record for reports.
func (r FaultRecord) String() string {
	return fmt.Sprintf("step %d: %s on %s -> %s (%s)", r.Step, r.Kind, r.Device, r.Action, r.Detail)
}

// timeline is one priced plan's event bracket on the simulated clock.
// openTimeline emits plan_start; the pricer defers end, which emits
// plan_end at the running total, so a plan that stops early on a fatal
// rung still closes. fault logs a FaultRecord into the Timing and
// mirrors it as an event. rec is nil when telemetry is off.
type timeline struct {
	rec  obs.Recorder
	id   uint64
	root int32
	t    *Timing
}

// openTimeline opens t's bracket for the traversal rooted at root,
// stamped with id (0 draws a fresh TraversalID).
func openTimeline(rec obs.Recorder, id uint64, root int32, t *Timing) timeline {
	if !obs.Live(rec) {
		return timeline{t: t}
	}
	if id == 0 {
		id = obs.NextTraversalID()
	}
	rec.Event(obs.Event{
		Kind: obs.KindPlanStart, TraversalID: id, Root: root,
		Engine: t.Plan, Dir: obs.DirNone,
	})
	return timeline{rec: rec, id: id, root: root, t: t}
}

func (tl timeline) end() {
	if tl.rec == nil {
		return
	}
	tl.rec.Event(obs.Event{
		Kind: obs.KindPlanEnd, TraversalID: tl.id, Root: tl.root,
		Engine: tl.t.Plan, Dir: obs.DirNone,
		SimStart: tl.t.Total, SimDur: tl.t.Total,
	})
}

// fault appends one ladder record and mirrors it as an event stamped
// at the current simulated time: retry → KindRetry, recover and
// replan → KindReplan, anything else (slowdown, fatal) → KindFault.
func (tl timeline) fault(fr FaultRecord) {
	tl.t.Faults = append(tl.t.Faults, fr)
	if tl.rec == nil {
		return
	}
	kind := obs.KindFault
	switch fr.Action {
	case "retry":
		kind = obs.KindRetry
	case "recover", "replan":
		kind = obs.KindReplan
	}
	tl.rec.Event(obs.Event{
		Kind: kind, TraversalID: tl.id, Root: tl.root,
		Engine: tl.t.Plan, Step: int32(fr.Step), Dir: obs.DirNone,
		Device: fr.Device, Detail: fr.Action + ": " + fr.Detail,
		SimStart: tl.t.Total,
	})
}

// SimulateResilient prices a plan against a traversal trace under a
// fault schedule, degrading gracefully instead of assuming the
// hardware behaves:
//
//   - a step placed on a crashed device is replanned onto a surviving
//     device from plan.Devices() (CPUs preferred), paying the transfer
//     to move the traversal state there;
//   - a transfer that the schedule drops is retried up to fault.MaxRetries
//     times with capped exponential backoff, each failed attempt
//     charging its wire time plus the wait; when retries are
//     exhausted the migration is abandoned and the step runs where
//     the state already is (one more replan) — unless that device is
//     itself dead, which is fatal;
//   - a slowed device prices each of its steps on a derated copy
//     (archsim.Arch.Slowed), derated once by the step's factor.
//
// Because level sets are direction-independent, this replays any plan
// without re-traversing the graph: each step charges the placed device
// for its direction's work, plus a link transfer whenever the
// placement moves between devices. The transfer ships the frontier
// bitmap, the visited bitmap and the predecessor/level entries
// discovered since the last time the target device held the traversal
// — so a late (mistuned) handoff pays for everything discovered so
// far, which is the mechanism behind the paper's 695x best-to-worst
// spread for cross-architecture switching.
//
// With an empty schedule this is Simulate, and it can neither fail
// nor cost more than the bare replay: it lists no devices and asks
// the schedule nothing. When the ladder runs out (no surviving
// device), the partial Timing is returned together with a
// *fault.Error.
//
// opts.Recorder receives the priced timeline on the simulated clock
// (SimStart/SimDur in modeled seconds): KindPlanStart; per step a
// KindHandoff when the step pays a transfer, then a KindSimStep on its
// device's lane; a retry/replan/fault event per FaultRecord; and
// KindPlanEnd carrying the plan's total. This is the one emitter of a
// priced single-device timeline: with no schedule it is the clean
// run's. SimulateShardedResilient shares its bracket (timeline).
func SimulateResilient(tr *bfs.Trace, plan Plan, link archsim.Link, opts ResilientOptions) (*Timing, error) {
	sched := opts.Schedule
	faulty := !sched.Empty()
	sched.Reset()
	stepper := plan.Begin()
	t := &Timing{
		Plan:         plan.Name(),
		Steps:        make([]StepTiming, 0, len(tr.Steps)),
		EdgesVisited: tr.EdgesVisited,
	}
	tl := openTimeline(opts.Recorder, opts.TraversalID, tr.Source, t)
	defer tl.end()

	alive := func(a archsim.Arch, step int) bool {
		_, crashed := sched.CrashedBy(a.Name, a.Kind.String(), step)
		return !crashed
	}
	// survivor picks the replan target: the first living CPU if any
	// (the general-purpose fallback at the bottom of the ladder), else
	// the first living device in plan order.
	survivor := func(step int) (archsim.Arch, bool) {
		var first archsim.Arch
		found := false
		for _, d := range plan.Devices() {
			if !alive(d, step) {
				continue
			}
			if d.Kind == archsim.CPU {
				return d, true
			}
			if !found {
				first, found = d, true
			}
		}
		return first, found
	}
	// Each crashed or slowed device is recorded once.
	var crashSeen, slowSeen map[string]bool
	if faulty {
		crashSeen, slowSeen = make(map[string]bool), make(map[string]bool)
	}

	// prevName names the device holding the traversal state; prev is
	// that device as placed, kept for an abandoned migration's fallback.
	prevName := ""
	var prev archsim.Arch
	discoveredSinceSwitch := int64(1) // the source itself
	bitmapBytes := (tr.NumVertices + 7) / 8

	for i := range tr.Steps {
		s := &tr.Steps[i]
		info := bfs.StepInfo{
			Step:              s.Step,
			FrontierVertices:  s.FrontierVertices,
			FrontierEdges:     s.FrontierEdges,
			UnvisitedVertices: s.UnvisitedVertices,
			TotalVertices:     tr.NumVertices,
			TotalEdges:        tr.NumEdges,
		}
		// Replans overwrite pl.Arch: copies of a 200-byte Arch are costly.
		pl := stepper.Place(info)
		if faulty && !alive(pl.Arch, s.Step) {
			surv, ok := survivor(s.Step)
			if !ok {
				tl.fault(FaultRecord{
					Step: s.Step, Kind: fault.DeviceCrash, Device: pl.Arch.Name,
					Action: "fatal", Detail: "no surviving device",
				})
				return t, &fault.Error{
					Kind: fault.DeviceCrash, Device: pl.Arch.Name, Step: s.Step,
					Reason: "no surviving device to replan onto",
				}
			}
			if !crashSeen[pl.Arch.Name] {
				crashSeen[pl.Arch.Name] = true
				t.Replans++
				tl.fault(FaultRecord{
					Step: s.Step, Kind: fault.DeviceCrash, Device: pl.Arch.Name,
					Action: "replan", Detail: "steps moved to " + surv.Name,
				})
			}
			pl.Arch = surv
		}

		st := StepTiming{Step: s.Step, ArchName: pl.Arch.Name, Kind: pl.Arch.Kind, Dir: pl.Dir}
		var movedBytes int64
		migrateFrom := ""
		if prevName != "" && prevName != pl.Arch.Name {
			// Migration: ship the bitmaps and the entries discovered
			// since the target last held the traversal, retrying
			// dropped transfers with capped exponential backoff.
			movedBytes = 2*bitmapBytes + 8*discoveredSinceSwitch
			migrateFrom = prevName
			base := link.TransferTime(movedBytes)
			wasted := 0.0
			backoff := fault.RetryBackoff.Seconds()
			retries := 0
			migrated := true
			for faulty && sched.LinkDrops() {
				if retries == fault.MaxRetries {
					migrated = false
					wasted += base // the final failed attempt
					break
				}
				retries++
				wasted += base + backoff // failed wire time + wait
				backoff = math.Min(backoff*2, fault.BackoffCap.Seconds())
			}
			t.Retries += retries
			switch {
			case migrated:
				if retries > 0 {
					tl.fault(FaultRecord{
						Step: s.Step, Kind: fault.LinkTransient, Device: pl.Arch.Name,
						Action: "retry", Detail: fmt.Sprintf("transfer succeeded after %d retries", retries),
					})
				}
				st.Transfer = base + wasted
				discoveredSinceSwitch = 0
			case alive(prev, s.Step):
				// Retries exhausted: abandon the migration and run the
				// step where the traversal state already is.
				t.Replans++
				tl.fault(FaultRecord{
					Step: s.Step, Kind: fault.LinkTransient, Device: pl.Arch.Name,
					Action: "replan", Detail: fmt.Sprintf("transfer retries exhausted; staying on %s", prev.Name),
				})
				pl.Arch = prev
				st.ArchName, st.Kind = prev.Name, prev.Kind
				st.Transfer = wasted
			default:
				// Migrating off a dead device over a dead link: the
				// traversal state is unreachable.
				tl.fault(FaultRecord{
					Step: s.Step, Kind: fault.LinkTransient, Device: pl.Arch.Name,
					Action: "fatal", Detail: "transfer retries exhausted and source device is down",
				})
				return t, &fault.Error{
					Kind: fault.LinkTransient, Device: pl.Arch.Name, Step: s.Step,
					Reason: fmt.Sprintf("transfer failed after %d retries with no surviving source", retries),
				}
			}
		}

		// A slowed step is priced again on a derated copy; pl.Arch, and
		// so prev, stay the device as placed.
		st.Kernel = pl.Arch.StepTime(pl.Dir, *s)
		if faulty {
			if f := sched.SlowdownAt(pl.Arch.Name, pl.Arch.Kind.String(), s.Step); f > 1 {
				if !slowSeen[pl.Arch.Name] {
					slowSeen[pl.Arch.Name] = true
					tl.fault(FaultRecord{
						Step: s.Step, Kind: fault.KernelSlowdown, Device: pl.Arch.Name,
						Action: "slowdown", Detail: fmt.Sprintf("rates derated x%g", f),
					})
				}
				st.Kernel = pl.Arch.Slowed(f).StepTime(pl.Dir, *s)
			}
		}

		if tl.rec != nil {
			// Transfer-then-kernel: the state must arrive before the
			// device can expand the level. An abandoned migration shows
			// as a handoff whose From equals its target: the wasted wire
			// time of the failed attempts.
			if st.Transfer > 0 {
				tl.rec.Event(obs.Event{
					Kind: obs.KindHandoff, TraversalID: tl.id, Root: tr.Source,
					Engine: t.Plan, Step: int32(s.Step), Dir: obs.DirNone,
					From: migrateFrom, Device: st.ArchName, Bytes: movedBytes,
					SimStart: t.Total, SimDur: st.Transfer,
				})
			}
			tl.rec.Event(obs.Event{
				Kind: obs.KindSimStep, TraversalID: tl.id, Root: tr.Source,
				Engine: t.Plan, Step: int32(s.Step),
				Dir:              obs.Direction(pl.Dir),
				Device:           st.ArchName,
				FrontierVertices: s.FrontierVertices,
				FrontierEdges:    s.FrontierEdges,
				Discovered:       s.Discovered,
				Unvisited:        s.UnvisitedVertices,
				Scans:            s.BottomUpScans,
				SimStart:         t.Total + st.Transfer,
				SimDur:           st.Kernel,
			})
		}

		if faulty {
			prev = pl.Arch
		}
		prevName = pl.Arch.Name
		discoveredSinceSwitch += s.Discovered
		t.Steps = append(t.Steps, st)
		t.Total += st.Kernel + st.Transfer
		t.Transfers += st.Transfer
	}
	return t, nil
}

// ExecuteResilient is Execute under a context and a fault schedule:
// the plan's decisions drive real host kernels (producing a correct,
// validated predecessor/level map, cancellable via ctx), and the
// priced timing degrades through the fault ladder instead of assuming
// clean hardware. The error is ctx.Err() verbatim on cancellation, a
// *fault.Error when the modeled execution could not complete, or nil;
// on any error no result is returned.
func ExecuteResilient(ctx context.Context, g *graph.CSR, source int32, plan Plan, link archsim.Link, opts ResilientOptions) (*bfs.Result, *bfs.Trace, *Timing, error) {
	stepper := plan.Begin()
	policy := bfs.PolicyFunc(func(s bfs.StepInfo) bfs.Direction {
		return stepper.Place(s).Dir
	})
	// One TraversalID spans the whole resilient execution: the real
	// traversal's wall-clock events and the priced replay's
	// retry/replan mirror are one logical run, and must land on the
	// same side of any sampling decision (obs.Sampler) and in the same
	// flight-recorder group (obs.Ring).
	runRec := opts.Recorder
	if obs.Live(opts.Recorder) {
		if opts.TraversalID == 0 {
			opts.TraversalID = obs.NextTraversalID()
		}
		runRec = obs.WithTraversalID(opts.TraversalID, opts.Recorder)
	}
	runOpts := bfs.Options{
		Policy: policy, Workers: opts.Workers,
		Recorder: runRec, Label: plan.Name(),
	}
	res, err := bfs.Run(ctx, g, source, runOpts, nil)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, nil, ctxErr
		}
		return nil, nil, nil, fmt.Errorf("core: executing plan %s: %w", plan.Name(), err)
	}
	tr, err := bfs.ComputeTrace(g, res)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: tracing plan %s: %w", plan.Name(), err)
	}
	timing, err := SimulateResilient(tr, plan, link, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	// The replay must agree with what actually ran: replanning moves
	// steps between devices but never changes their direction.
	for i, st := range timing.Steps {
		if res.Directions[i] != st.Dir {
			//lint:fault-ok invariant violation (non-deterministic plan), not a modeled fault; nothing to wrap
			return nil, nil, nil, fmt.Errorf("core: plan %s resilient replay diverged at step %d (%s vs %s)",
				plan.Name(), i+1, res.Directions[i], st.Dir)
		}
	}
	return res, tr, timing, nil
}
