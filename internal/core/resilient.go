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

// ResilientOptions configure fault-tolerant execution.
type ResilientOptions struct {
	// Schedule is the fault injection registry; nil or empty injects
	// nothing, making SimulateResilient equivalent to Simulate.
	Schedule *fault.Schedule
	// MaxRetries bounds the re-attempts of one dropped transfer before
	// the migration is abandoned (replanned). <= 0 selects 3.
	MaxRetries int
	// RetryBackoff is the modeled wait before the first re-attempt, in
	// seconds; it doubles per retry. <= 0 selects 50us.
	RetryBackoff float64
	// BackoffCap bounds the modeled backoff, in seconds. <= 0 selects
	// 5ms.
	BackoffCap float64
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

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50e-6
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 5e-3
	}
	return o
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

// DeviceLister is implemented by plans that can enumerate every device
// they may place steps on. The resilient executor uses it to find
// survivors when a placed device has crashed; plans that do not
// implement it can only replan onto devices already seen in earlier
// placements.
type DeviceLister interface {
	Devices() []archsim.Arch
}

// SimulateResilient prices a plan against a traversal trace under a
// fault schedule, degrading gracefully instead of assuming the
// hardware behaves:
//
//   - a step placed on a crashed device is replanned onto a surviving
//     device (CPUs preferred), paying the transfer to move the
//     traversal state there;
//   - a transfer that the schedule drops is retried up to MaxRetries
//     times with capped exponential backoff, each failed attempt
//     charging its wire time plus the wait; when retries are
//     exhausted the migration is abandoned and the step runs where
//     the state already is (one more replan) — unless that device is
//     itself dead, which is fatal;
//   - a slowed device prices its steps on the derated copy
//     (archsim.Arch.Slowed).
//
// With an empty schedule the result is identical to Simulate. When the
// ladder runs out (no surviving device), the partial Timing is
// returned together with a *fault.Error.
//
// opts.Recorder receives the priced timeline on the simulated clock
// (SimStart/SimDur in modeled seconds): KindPlanStart; per step a
// KindHandoff when the step pays a transfer, then a KindSimStep on its
// device's lane; a retry/replan/fault event per FaultRecord; and
// KindPlanEnd carrying the plan's total. This is the one emitter of a
// priced timeline: with no schedule it is the clean run's.
func SimulateResilient(tr *bfs.Trace, plan Plan, link archsim.Link, opts ResilientOptions) (*Timing, error) {
	opts = opts.withDefaults()
	sched := opts.Schedule
	sched.Reset()
	stepper := plan.Begin()
	t := &Timing{
		Plan:         plan.Name(),
		Steps:        make([]StepTiming, 0, len(tr.Steps)),
		EdgesVisited: tr.EdgesVisited,
	}

	rec := opts.Recorder
	live := obs.Live(rec)
	var id uint64
	if live {
		if id = opts.TraversalID; id == 0 {
			id = obs.NextTraversalID()
		}
		rec.Event(obs.Event{
			Kind: obs.KindPlanStart, TraversalID: id, Root: tr.Source,
			Engine: plan.Name(), Dir: obs.DirNone,
		})
		// Deferred closer: the fatal rungs of the ladder return early
		// with a *fault.Error, and the timeline must close on those
		// paths too — a degraded plan still ends, at the partial total.
		defer func() {
			rec.Event(obs.Event{
				Kind: obs.KindPlanEnd, TraversalID: id, Root: tr.Source,
				Engine: plan.Name(), Dir: obs.DirNone,
				SimStart: t.Total, SimDur: t.Total,
			})
		}()
	}
	// noteFault appends one ladder record and mirrors it as a telemetry
	// event — retry → KindRetry, replan → KindReplan, slowdown/fatal →
	// KindFault — stamped at the current simulated time.
	noteFault := func(fr FaultRecord) {
		t.Faults = append(t.Faults, fr)
		if !live {
			return
		}
		kind := obs.KindFault
		switch fr.Action {
		case "retry":
			kind = obs.KindRetry
		case "replan":
			kind = obs.KindReplan
		}
		rec.Event(obs.Event{
			Kind: kind, TraversalID: id, Root: tr.Source,
			Engine: plan.Name(), Step: int32(fr.Step), Dir: obs.DirNone,
			Device: fr.Device, Detail: fr.Action + ": " + fr.Detail,
			SimStart: t.Total,
		})
	}

	var devices []archsim.Arch
	if dl, ok := plan.(DeviceLister); ok {
		devices = dl.Devices()
	}
	noteDevice := func(a archsim.Arch) {
		for _, d := range devices {
			if d.Name == a.Name {
				return
			}
		}
		devices = append(devices, a)
	}
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
		for _, d := range devices {
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

	crashSeen := make(map[string]bool)
	slowSeen := make(map[string]bool)
	var prev archsim.Arch
	havePrev := false
	discoveredSinceSwitch := int64(1) // the source itself
	bitmapBytes := (tr.NumVertices + 7) / 8

	for _, s := range tr.Steps {
		info := bfs.StepInfo{
			Step:              s.Step,
			FrontierVertices:  s.FrontierVertices,
			FrontierEdges:     s.FrontierEdges,
			UnvisitedVertices: s.UnvisitedVertices,
			TotalVertices:     tr.NumVertices,
			TotalEdges:        tr.NumEdges,
		}
		pl := stepper.Place(info)
		arch, dir := pl.Arch, pl.Dir
		noteDevice(arch)

		if _, crashed := sched.CrashedBy(arch.Name, arch.Kind.String(), s.Step); crashed {
			surv, ok := survivor(s.Step)
			if !ok {
				noteFault(FaultRecord{
					Step: s.Step, Kind: fault.DeviceCrash, Device: arch.Name,
					Action: "fatal", Detail: "no surviving device",
				})
				return t, &fault.Error{
					Kind: fault.DeviceCrash, Device: arch.Name, Step: s.Step,
					Reason: "no surviving device to replan onto",
				}
			}
			if !crashSeen[arch.Name] {
				crashSeen[arch.Name] = true
				t.Replans++
				noteFault(FaultRecord{
					Step: s.Step, Kind: fault.DeviceCrash, Device: arch.Name,
					Action: "replan", Detail: "steps moved to " + surv.Name,
				})
			}
			arch = surv
		}

		st := StepTiming{Step: s.Step, ArchName: arch.Name, Kind: arch.Kind, Dir: dir}
		var movedBytes int64
		migrateFrom := ""
		if havePrev && prev.Name != arch.Name {
			// Migration: ship the bitmaps and the entries discovered
			// since the target last held the traversal (as in Simulate),
			// retrying dropped transfers with capped exponential backoff.
			movedBytes = 2*bitmapBytes + 8*discoveredSinceSwitch
			migrateFrom = prev.Name
			base := link.TransferTime(movedBytes)
			wasted := 0.0
			backoff := opts.RetryBackoff
			retries := 0
			migrated := true
			for sched.LinkDrops() {
				if retries == opts.MaxRetries {
					migrated = false
					wasted += base // the final failed attempt
					break
				}
				retries++
				wasted += base + backoff // failed wire time + wait
				backoff = math.Min(backoff*2, opts.BackoffCap)
			}
			t.Retries += retries
			switch {
			case migrated:
				if retries > 0 {
					noteFault(FaultRecord{
						Step: s.Step, Kind: fault.LinkTransient, Device: arch.Name,
						Action: "retry", Detail: fmt.Sprintf("transfer succeeded after %d retries", retries),
					})
				}
				st.Transfer = base + wasted
				discoveredSinceSwitch = 0
			case alive(prev, s.Step):
				// Retries exhausted: abandon the migration and run the
				// step where the traversal state already is.
				t.Replans++
				noteFault(FaultRecord{
					Step: s.Step, Kind: fault.LinkTransient, Device: arch.Name,
					Action: "replan", Detail: fmt.Sprintf("transfer retries exhausted; staying on %s", prev.Name),
				})
				arch = prev
				st.ArchName, st.Kind = arch.Name, arch.Kind
				st.Transfer = wasted
			default:
				// Migrating off a dead device over a dead link: the
				// traversal state is unreachable.
				noteFault(FaultRecord{
					Step: s.Step, Kind: fault.LinkTransient, Device: arch.Name,
					Action: "fatal", Detail: "transfer retries exhausted and source device is down",
				})
				return t, &fault.Error{
					Kind: fault.LinkTransient, Device: arch.Name, Step: s.Step,
					Reason: fmt.Sprintf("transfer failed after %d retries with no surviving source", retries),
				}
			}
		}

		if f := sched.SlowdownAt(arch.Name, arch.Kind.String(), s.Step); f > 1 {
			if !slowSeen[arch.Name] {
				slowSeen[arch.Name] = true
				noteFault(FaultRecord{
					Step: s.Step, Kind: fault.KernelSlowdown, Device: arch.Name,
					Action: "slowdown", Detail: fmt.Sprintf("rates derated x%g", f),
				})
			}
			arch = arch.Slowed(f)
		}
		st.Kernel = arch.StepTime(dir, s)

		if live {
			// Transfer-then-kernel: the state must arrive before the
			// device can expand the level. An abandoned migration shows
			// as a handoff whose From equals its target: the wasted wire
			// time of the failed attempts.
			if st.Transfer > 0 {
				rec.Event(obs.Event{
					Kind: obs.KindHandoff, TraversalID: id, Root: tr.Source,
					Engine: plan.Name(), Step: int32(s.Step), Dir: obs.DirNone,
					From: migrateFrom, Device: st.ArchName, Bytes: movedBytes,
					SimStart: t.Total, SimDur: st.Transfer,
				})
			}
			rec.Event(obs.Event{
				Kind: obs.KindSimStep, TraversalID: id, Root: tr.Source,
				Engine: plan.Name(), Step: int32(s.Step),
				Dir:              obs.Direction(dir),
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

		prev, havePrev = arch, true
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
	opts = opts.withDefaults()
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
