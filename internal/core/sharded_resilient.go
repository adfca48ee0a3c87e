package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/fault"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// SimulateShardedResilient prices one traversal of the sharded engine:
// tr supplies the per-level work counts, exch the measured per-level
// exchange volumes (bfs.Result.Exchanges — one entry per step, in step
// order). Each step charges the slowest shard for 1/Ranks of the work
// (balanced-partition assumption, as in MultiCross) plus the fabric
// collective: direction all-reduce + the level's measured exchange.
//
// Under a rank fault schedule it mirrors the degradation the real
// engine performs (bfs.Sharded with SetFaults):
//
//   - a rank crashed by a step is removed from the partition: the
//     survivors absorb its shard, so the per-step kernel charges the
//     slowest of the remaining live ranks (1/live of the work) plus a
//     one-time recovery surcharge at the death step — the replayed
//     level's kernel and the checkpoint-restore all-gather;
//   - a lagging rank stretches its step by the lag factor and rides
//     degraded fabric links (archsim.Fabric.DegradeRank), so every
//     collective it joins is priced on the damaged wires;
//   - an exchange-drop probability inflates every level's exchange by
//     the expected attempt count under the engine's capped-backoff
//     retry policy (package fault), and adds the expected backoff wait.
//
// When every rank is dead the partial Timing is returned together with
// a *fault.Error — the caller's cue to escalate to a non-sharded plan
// (see ExecuteShardedResilient). opts.Recorder receives the plan's
// bracket on the simulated clock, KindPlanStart and KindPlanEnd, and a
// retry/replan/fault event per FaultRecord.
func SimulateShardedResilient(tr *bfs.Trace, exch []bfs.ExchangeStats, plan ShardedPlan, opts ResilientOptions) (*Timing, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if len(exch) != len(tr.Steps) {
		//lint:fault-ok argument validation, not a modeled fault; nothing to wrap
		return nil, fmt.Errorf("core: %d exchange records for a %d-step trace (run the sharded engine to collect them)",
			len(exch), len(tr.Steps))
	}
	sched := opts.Schedule
	t := &Timing{
		Plan:         plan.Name(),
		Steps:        make([]StepTiming, 0, len(tr.Steps)),
		EdgesVisited: tr.EdgesVisited,
	}
	tl := openTimeline(opts.Recorder, opts.TraversalID, tr.Source, t)
	defer tl.end()

	// The engine retries a dropped exchange up to fault.MaxRetries
	// times with capped exponential backoff, so under drop probability
	// p one collective costs an expected sum(p^k) attempts on the wire
	// plus the expected backoff wait — both charged per level below.
	dropP := sched.ExchangeDropProb()
	attemptMult, backoffWait := 1.0, 0.0
	if dropP > 0 {
		backoff := fault.RetryBackoff.Seconds()
		for k := 1; k <= fault.MaxRetries; k++ {
			pk := math.Pow(dropP, float64(k))
			attemptMult += pk
			backoffWait += pk * backoff
			backoff = math.Min(backoff*2, fault.BackoffCap.Seconds())
		}
	}
	var expectedRetries float64

	dead := make([]bool, plan.Ranks)
	liveRanks := plan.Ranks
	for i, s := range tr.Steps {
		ex := exch[i]
		step := s.Step
		// Fence every rank the schedule has crashed by this step. Each
		// death is one membership change the survivors replay the level
		// for; losing the last rank is fatal (the executor escalates).
		var deaths []int
		for r := 0; r < plan.Ranks; r++ {
			if dead[r] {
				continue
			}
			if ev, ok := sched.RankCrashedBy(r, step); ok {
				dead[r] = true
				liveRanks--
				deaths = append(deaths, r)
				t.Replans++
				tl.fault(FaultRecord{
					Step: step, Kind: fault.RankCrash,
					Device: fmt.Sprintf("rank%d", r), Action: "recover",
					Detail: fmt.Sprintf("injected %s; %d survivors replay level %d", ev, liveRanks, step),
				})
			}
		}
		if liveRanks == 0 {
			last := deaths[len(deaths)-1]
			tl.fault(FaultRecord{
				Step: step, Kind: fault.RankCrash,
				Device: fmt.Sprintf("rank%d", last), Action: "fatal",
				Detail: "no surviving rank",
			})
			return t, &fault.Error{
				Kind: fault.RankCrash, Device: fmt.Sprintf("rank%d", last),
				Step: step, Reason: "no surviving rank",
			}
		}

		// Kernel: the slowest surviving shard holds 1/live of the work,
		// stretched by the worst lag factor still in the collective.
		part := partitionStats(s, liveRanks)
		lagMax := 1.0
		fab := plan.Fabric
		for r := 0; r < plan.Ranks; r++ {
			if dead[r] {
				continue
			}
			if f := sched.RankLagAt(r, step); f > 1 {
				if f > lagMax {
					lagMax = f
				}
				fab = fab.DegradeRank(r, f)
			}
		}
		st := StepTiming{
			Step:     step,
			ArchName: plan.Name(),
			Kind:     plan.Device.Kind,
			Dir:      ex.Dir,
			Kernel:   plan.Device.StepTime(ex.Dir, part) * lagMax,
		}
		if lagMax > 1 {
			tl.fault(FaultRecord{
				Step: step, Kind: fault.RankLag, Device: plan.Name(),
				Action: "slowdown",
				Detail: fmt.Sprintf("collective stretched %.3gx by lagging rank", lagMax),
			})
		}
		perRankDelta := ex.FrontierBytes / int64(liveRanks)
		st.Transfer = fab.ExchangeTime(perRankDelta, ex.GhostBytes) * attemptMult
		st.Transfer += backoffWait
		expectedRetries += (attemptMult - 1)
		// Recovery surcharge: each death this level makes the survivors
		// roll back, all-gather the checkpointed frontier, and replay.
		for range deaths {
			st.Kernel += plan.Device.StepTime(ex.Dir, part) * lagMax
			st.Transfer += fab.AllGatherTime(perRankDelta)
		}
		t.Steps = append(t.Steps, st)
		t.Total += st.Kernel + st.Transfer
		t.Transfers += st.Transfer
	}
	if expectedRetries > 0 {
		t.Retries += int(math.Ceil(expectedRetries))
		tl.fault(FaultRecord{
			Step: 1, Kind: fault.ExchangeDrop, Device: "fabric",
			Action: "retry",
			Detail: fmt.Sprintf("drop p=%.3g: expected %.2f re-attempts across %d levels", dropP, expectedRetries, len(tr.Steps)),
		})
	}
	return t, nil
}

// ExecuteShardedResilient runs the partitioned engine for real and
// prices the same traversal on the plan's modeled machine: the
// returned Result is the validated parent/level map the ranks
// produced, the Timing prices its per-level work and measured exchange
// volumes (SimulateShardedResilient). opts.Recorder (may be nil)
// receives the real traversal's events — collectives, per-rank
// exchanges, ghost updates included — and the priced plan's bracket.
//
// With no schedule this is the clean run. A fault schedule injects
// rank faults at the engine's exchange seams (crash, lag, dropped
// collectives), survivors recover from per-level checkpoints, and the
// priced replay mirrors the degradation. When the engine itself gives
// up — every rank dead, or an unrecoverable stall — the traversal
// escalates one more rung: it replans onto a single un-sharded device
// (the plan's Device) via ExecuteResilient, the same ladder the
// paper's cross-architecture executor ends on. The error is ctx.Err()
// verbatim on cancellation, a *fault.Error when even the escalation
// could not complete, or nil.
func ExecuteShardedResilient(ctx context.Context, g *graph.CSR, source int32, plan ShardedPlan, ws *bfs.Workspace, opts ResilientOptions) (*bfs.Result, *Timing, error) {
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}
	runRec := opts.Recorder
	if obs.Live(opts.Recorder) {
		// One TraversalID spans the real run, the priced mirror, and a
		// possible escalation: they are one logical traversal and must
		// land on the same side of any sampling decision.
		if opts.TraversalID == 0 {
			opts.TraversalID = obs.NextTraversalID()
		}
		runRec = obs.WithTraversalID(opts.TraversalID, opts.Recorder)
	}

	eng := bfs.NewShardedEngine(plan.Ranks, plan.M, plan.N)
	eng.SetFaults(opts.Schedule)
	res, err := eng.RunObserved(ctx, g, source, ws, runRec)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, ctxErr
		}
		var ferr *fault.Error
		if !errors.As(err, &ferr) {
			return nil, nil, fmt.Errorf("core: executing plan %s: %w", plan.Name(), err)
		}
		// Total collapse: no survivor set could finish the sharded
		// traversal. Escalate to the single-device resilient executor —
		// rank faults cannot follow the traversal there, but the
		// schedule's device-level events still apply.
		single := SinglePlan{
			PlanName: plan.Name() + "-degraded",
			Arch:     plan.Device,
			Policy:   bfs.MN{M: plan.M, N: plan.N},
		}
		sres, _, timing, serr := ExecuteResilient(ctx, g, source, single, archsim.Link{}, opts)
		if serr != nil {
			return nil, nil, fmt.Errorf("core: plan %s lost every rank and the fallback failed: %w", plan.Name(), serr)
		}
		timing.Replans++
		timing.Faults = append([]FaultRecord{{
			Step: ferr.Step, Kind: ferr.Kind, Device: ferr.Device,
			Action: "replan",
			Detail: fmt.Sprintf("sharded traversal unrecoverable (%s); replanned onto %s", ferr.Reason, single.PlanName),
		}}, timing.Faults...)
		return sres, timing, nil
	}
	tr, err := bfs.ComputeTrace(g, res)
	if err != nil {
		return nil, nil, fmt.Errorf("core: tracing plan %s: %w", plan.Name(), err)
	}
	timing, err := SimulateShardedResilient(tr, res.Exchanges, plan, opts)
	if err != nil {
		return nil, nil, err
	}
	for i, st := range timing.Steps {
		if res.Directions[i] != st.Dir {
			//lint:fault-ok invariant violation (engine/replay disagreement), not a modeled fault; nothing to wrap
			return nil, nil, fmt.Errorf("core: plan %s resilient replay diverged at step %d (%s vs %s)",
				plan.Name(), i+1, res.Directions[i], st.Dir)
		}
	}
	return res, timing, nil
}
