package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/fault"
	"crossbfs/internal/obs"
)

func defaultCross() CrossPlan {
	return CrossPlan{
		Host: archsim.SandyBridge(), Coprocessor: archsim.KeplerK20x(),
		M1: 64, N1: 64, M2: 64, N2: 64,
	}
}

func mustSchedule(t *testing.T, spec string, seed uint64) *fault.Schedule {
	t.Helper()
	s, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return s
}

// TestSimulateResilientNoFaultParity pins the clean run: with no
// schedule, the resilient path reports no degradation for any plan
// shape, and its recorder sees the clean priced timeline.
// TestPricingGolden pins the priced numbers themselves.
func TestSimulateResilientNoFaultParity(t *testing.T) {
	tr := testTrace(t, 10, 8, 7)
	link := archsim.PCIe()
	plans := []Plan{
		defaultCross(),
		Combination(archsim.SandyBridge(), 64, 64),
		FixedDirection(archsim.KeplerK20x(), bfs.BottomUp),
		TwoArchPlan{TDArch: archsim.SandyBridge(), BUArch: archsim.KeplerK20x(), M: 64, N: 64},
		CrossTDBU{Host: archsim.SandyBridge(), Coprocessor: archsim.KeplerK20x(), M1: 64, N1: 64},
	}
	handoffs := 0
	for _, p := range plans {
		rec := &captureRecorder{}
		got, err := SimulateResilient(tr, p, link, ResilientOptions{Recorder: rec})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if got.Degraded() {
			t.Fatalf("%s: clean run reported degradation: %+v", p.Name(), got.Faults)
		}
		handoffs += checkCleanTimeline(t, p.Name(), rec.events, got)
	}
	if handoffs == 0 {
		t.Fatal("no plan migrated between devices; the handoff events went untested")
	}
}

// checkCleanTimeline requires events to be the fault-free priced
// timeline of want: one plan_start; per step a handoff exactly when
// the step pays a transfer, starting at the running total, then a
// sim_step on the step's device after the transfer; one plan_end
// carrying the total. All share one nonzero TraversalID. It returns
// the number of handoffs.
func checkCleanTimeline(t *testing.T, plan string, events []obs.Event, want *Timing) int {
	t.Helper()
	next := func(kind obs.Kind) obs.Event {
		t.Helper()
		if len(events) == 0 {
			t.Fatalf("%s: timeline ends early, want a %s event", plan, kind)
		}
		e := events[0]
		events = events[1:]
		if e.Kind != kind {
			t.Fatalf("%s: got a %s event, want %s", plan, e.Kind, kind)
		}
		return e
	}
	start := next(obs.KindPlanStart)
	if start.TraversalID == 0 || start.Engine != plan {
		t.Fatalf("%s: plan_start has ID %d, engine %q", plan, start.TraversalID, start.Engine)
	}
	sameRun := func(e obs.Event) {
		t.Helper()
		if e.TraversalID != start.TraversalID || e.Engine != plan {
			t.Fatalf("%s: %s event has ID %d, engine %q; plan_start had %d", plan, e.Kind, e.TraversalID, e.Engine, start.TraversalID)
		}
	}
	handoffs := 0
	total := 0.0
	for _, st := range want.Steps {
		if st.Transfer > 0 {
			h := next(obs.KindHandoff)
			sameRun(h)
			handoffs++
			if h.Step != int32(st.Step) || h.Device != st.ArchName || h.SimStart != total || h.SimDur != st.Transfer {
				t.Errorf("%s step %d: handoff %+v, want to %s at %v for %v", plan, st.Step, h, st.ArchName, total, st.Transfer)
			}
		}
		s := next(obs.KindSimStep)
		sameRun(s)
		if s.Step != int32(st.Step) || s.Dir != obs.Direction(st.Dir) || s.Device != st.ArchName ||
			s.SimStart != total+st.Transfer || s.SimDur != st.Kernel {
			t.Errorf("%s step %d: sim_step %+v, want %s %s at %v for %v", plan, st.Step, s, st.ArchName, st.Dir, total+st.Transfer, st.Kernel)
		}
		total += st.Kernel + st.Transfer
	}
	end := next(obs.KindPlanEnd)
	sameRun(end)
	if end.SimDur != want.Total {
		t.Errorf("%s: plan_end SimDur %v, want the total %v", plan, end.SimDur, want.Total)
	}
	if len(events) > 0 {
		t.Errorf("%s: %d events after plan_end, first %s", plan, len(events), events[0].Kind)
	}
	return handoffs
}

// TestResilientGPUCrashAtHandoff is the acceptance scenario: the GPU
// dies exactly when Algorithm 3 hands the traversal to it. Execution
// must complete on the survivor (the CPU) with a correct parent tree,
// and the replan must be visible in the Timing.
func TestResilientGPUCrashAtHandoff(t *testing.T) {
	g, src := testGraph(t, 10, 8, 3)
	plan := defaultCross()
	link := archsim.PCIe()

	// Find the handoff step on a clean run.
	clean, err := bfs.TraceFrom(context.Background(), g, src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	timing := Simulate(clean, plan, link)
	handoff := 0
	for _, st := range timing.Steps {
		if st.ArchName == plan.Coprocessor.Name {
			handoff = st.Step
			break
		}
	}
	if handoff == 0 {
		t.Fatal("plan never used the coprocessor; test graph too small")
	}

	sched, err := fault.New(1, fault.Event{Kind: fault.DeviceCrash, Device: "GPU", Step: handoff})
	if err != nil {
		t.Fatal(err)
	}
	res, _, rt, err := ExecuteResilient(context.Background(), g, src, plan, link, ResilientOptions{Schedule: sched})
	if err != nil {
		t.Fatalf("ExecuteResilient: %v", err)
	}
	if err := bfs.Validate(g, res); err != nil {
		t.Fatalf("degraded traversal invalid: %v", err)
	}
	if rt.Replans < 1 {
		t.Errorf("Replans = %d, want >= 1", rt.Replans)
	}
	if len(rt.Faults) == 0 {
		t.Error("no fault events recorded")
	}
	for _, st := range rt.Steps {
		if st.Step >= handoff && st.ArchName == plan.Coprocessor.Name {
			t.Errorf("step %d still priced on crashed %s", st.Step, st.ArchName)
		}
	}
	if !rt.Degraded() {
		t.Error("Degraded() = false after a crash replan")
	}
}

// TestResilientTransientRetries checks the retry rung: a flaky link
// costs retries (and time) but the execution still completes, and a
// fully dead link degrades to staying on the host.
func TestResilientTransientRetries(t *testing.T) {
	tr := testTrace(t, 10, 8, 5)
	plan := defaultCross()
	link := archsim.PCIe()
	clean := Simulate(tr, plan, link)
	if clean.Transfers == 0 {
		t.Fatal("clean run never crossed the link; test graph too small")
	}

	// p = 1: every attempt drops, so every migration is abandoned and
	// the whole traversal stays on the host.
	dead, err := SimulateResilient(tr, plan, link, ResilientOptions{Schedule: mustSchedule(t, "transient:1", 1)})
	if err != nil {
		t.Fatalf("dead link: %v", err)
	}
	if dead.Retries == 0 || dead.Replans == 0 {
		t.Errorf("dead link: Retries = %d, Replans = %d, want both > 0", dead.Retries, dead.Replans)
	}
	for _, st := range dead.Steps {
		if st.ArchName != plan.Host.Name {
			t.Errorf("step %d ran on %s across a dead link", st.Step, st.ArchName)
		}
	}

	// Moderate p: determinism — the same seed replays the same faults.
	a, err := SimulateResilient(tr, plan, link, ResilientOptions{Schedule: mustSchedule(t, "transient:0.6", 42)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateResilient(tr, plan, link, ResilientOptions{Schedule: mustSchedule(t, "transient:0.6", 42)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different resilient timings")
	}
	if a.Total < clean.Total {
		t.Errorf("flaky link priced cheaper (%g) than clean (%g)", a.Total, clean.Total)
	}
}

// TestResilientAllDeadIsTyped checks the bottom of the ladder: when no
// planned device survives, the error is a *fault.Error.
func TestResilientAllDeadIsTyped(t *testing.T) {
	tr := testTrace(t, 9, 8, 2)
	plan := FixedDirection(archsim.KeplerK20x(), bfs.TopDown)
	_, err := SimulateResilient(tr, plan, archsim.PCIe(), ResilientOptions{Schedule: mustSchedule(t, "crash:GPU@1", 1)})
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v (%T), want *fault.Error", err, err)
	}
	if fe.Kind != fault.DeviceCrash {
		t.Errorf("fault kind = %v, want DeviceCrash", fe.Kind)
	}

	// Both devices of the cross plan dead is fatal too.
	_, err = SimulateResilient(tr, defaultCross(), archsim.PCIe(), ResilientOptions{Schedule: mustSchedule(t, "crash:CPU@1;crash:GPU@1", 1)})
	if !errors.As(err, &fe) {
		t.Fatalf("all-dead cross plan: err = %v (%T), want *fault.Error", err, err)
	}
}

// TestResilientSlowdownPricesHigher checks the slowdown hook: a
// throttled device makes the run slower and leaves a fault record,
// without changing placements.
func TestResilientSlowdownPricesHigher(t *testing.T) {
	tr := testTrace(t, 10, 8, 9)
	plan := Combination(archsim.SandyBridge(), 64, 64)
	clean := Simulate(tr, plan, archsim.PCIe())
	slow, err := SimulateResilient(tr, plan, archsim.PCIe(), ResilientOptions{Schedule: mustSchedule(t, "slow:CPUx2", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total <= clean.Total {
		t.Errorf("slowed total %g not above clean %g", slow.Total, clean.Total)
	}
	if slow.Replans != 0 || slow.Retries != 0 {
		t.Errorf("slowdown caused Replans=%d Retries=%d, want 0", slow.Replans, slow.Retries)
	}
	found := false
	for _, f := range slow.Faults {
		if f.Kind == fault.KernelSlowdown && f.Action == "slowdown" {
			found = true
		}
	}
	if !found {
		t.Errorf("no slowdown fault record in %+v", slow.Faults)
	}
	if math.IsNaN(slow.Total) || math.IsInf(slow.Total, 0) {
		t.Errorf("slowed total = %g", slow.Total)
	}
}

// TestResilientSlowdownDeratesOnce checks that a slowdown derates each
// step once, also a step whose migration was abandoned and that falls
// back to the device already holding the traversal: over a dead link
// every step stays on the slowed CPU and costs exactly its derated
// StepTime.
func TestResilientSlowdownDeratesOnce(t *testing.T) {
	tr := testTrace(t, 10, 8, 7)
	slowCPU := archsim.SandyBridge().Slowed(4)
	for _, plan := range []Plan{
		defaultCross(),
		TwoArchPlan{TDArch: archsim.SandyBridge(), BUArch: archsim.KeplerK20x(), M: 64, N: 64},
	} {
		timing, err := SimulateResilient(tr, plan, archsim.PCIe(),
			ResilientOptions{Schedule: mustSchedule(t, "slow:CPUx4;transient:1", 1)})
		if err != nil {
			t.Fatalf("%s: %v", plan.Name(), err)
		}
		if timing.Replans == 0 {
			t.Fatalf("%s: no migration was abandoned; the fallback went untested", plan.Name())
		}
		for i, st := range timing.Steps {
			if st.ArchName != slowCPU.Name {
				t.Fatalf("%s step %d ran on %s across a dead link", plan.Name(), st.Step, st.ArchName)
			}
			if want := slowCPU.StepTime(st.Dir, tr.Steps[i]); st.Kernel != want {
				t.Errorf("%s step %d (%s): kernel %g, want %g (derated once)", plan.Name(), st.Step, st.Dir, st.Kernel, want)
			}
		}
	}
}

// TestExecuteResilientCancellation checks the context path: a
// cancelled execution returns ctx.Err() verbatim.
func TestExecuteResilientCancellation(t *testing.T) {
	g, src := testGraph(t, 9, 8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := ExecuteResilient(ctx, g, src, defaultCross(), archsim.PCIe(), ResilientOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeviceListers pins the replan candidate sets (Plan.Devices).
func TestDeviceListers(t *testing.T) {
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	cases := []struct {
		plan Plan
		name string
		want []string
	}{
		{FixedDirection(gpu, bfs.TopDown), "GPUTD", []string{gpu.Name}},
		{Combination(cpu, 64, 64), "CPUCB", []string{cpu.Name}},
		{TwoArchPlan{TDArch: cpu, BUArch: gpu, M: 64, N: 64}, "two-arch", []string{cpu.Name, gpu.Name}},
		{TwoArchPlan{TDArch: cpu, BUArch: cpu, M: 64, N: 64}, "two-arch-same", []string{cpu.Name}},
		{defaultCross(), "cross", []string{cpu.Name, gpu.Name}},
		{CrossTDBU{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64}, "cross-tdbu", []string{cpu.Name, gpu.Name}},
	}
	for _, c := range cases {
		devs := c.plan.Devices()
		if len(devs) != len(c.want) {
			t.Errorf("%s: %d devices, want %d", c.name, len(devs), len(c.want))
			continue
		}
		for i, d := range devs {
			if d.Name != c.want[i] {
				t.Errorf("%s: device[%d] = %s, want %s", c.name, i, d.Name, c.want[i])
			}
		}
	}
}

// captureRecorder retains every event, synchronized (the traversal's
// parallel kernels emit from their coordinating goroutine, but the
// recorder contract requires concurrent safety).
type captureRecorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *captureRecorder) Event(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// TestExecuteResilientSharedTraversalID pins the sampling invariant:
// every event of one resilient execution — the real traversal's
// wall-clock events AND the priced replay's sim/retry/replan mirror —
// carries one TraversalID, so an obs.Sampler keeps or drops the whole
// run with a single decision.
func TestExecuteResilientSharedTraversalID(t *testing.T) {
	g, src := testGraph(t, 10, 8, 3)
	cap := &captureRecorder{}
	sched := mustSchedule(t, "transient:0.4", 7)
	_, _, timing, err := ExecuteResilient(context.Background(), g, src, defaultCross(), archsim.PCIe(),
		ResilientOptions{Schedule: sched, Recorder: cap})
	if err != nil {
		t.Fatalf("ExecuteResilient: %v", err)
	}
	if len(cap.events) == 0 {
		t.Fatal("no events recorded")
	}
	ids := make(map[uint64]int)
	kinds := make(map[obs.Kind]int)
	for _, e := range cap.events {
		ids[e.TraversalID]++
		kinds[e.Kind]++
	}
	if len(ids) != 1 {
		t.Fatalf("events span %d TraversalIDs (%v), want exactly 1", len(ids), ids)
	}
	for id := range ids {
		if id == 0 {
			t.Fatal("events carry TraversalID 0 (unattributed)")
		}
	}
	// Both halves of the execution must be present under that one ID.
	for _, k := range []obs.Kind{obs.KindTraversalStart, obs.KindLevel, obs.KindTraversalEnd,
		obs.KindPlanStart, obs.KindSimStep, obs.KindPlanEnd} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded", k)
		}
	}
	if timing.Retries > 0 && kinds[obs.KindRetry] == 0 {
		t.Errorf("timing reports %d retries but no retry events", timing.Retries)
	}

	// A caller-supplied ID is honored verbatim.
	cap2 := &captureRecorder{}
	const wantID = 0xbeef
	if _, _, _, err := ExecuteResilient(context.Background(), g, src, defaultCross(), archsim.PCIe(),
		ResilientOptions{Recorder: cap2, TraversalID: wantID}); err != nil {
		t.Fatalf("ExecuteResilient: %v", err)
	}
	for i, e := range cap2.events {
		if e.TraversalID != wantID {
			t.Fatalf("event %d (%s) has ID %d, want %#x", i, e.Kind, e.TraversalID, wantID)
		}
	}
}
