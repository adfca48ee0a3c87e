package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/fault"
	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
)

// fuzzGraph is built once per process: fuzzing re-enters the target
// thousands of times and the graph is the same for all of them.
var (
	fuzzOnce sync.Once
	fuzzG    *graph.CSR
	fuzzSrc  int32
	fuzzRef  *bfs.Result
	fuzzErr  error
)

func fuzzSetup() {
	fuzzOnce.Do(func() {
		p := rmat.DefaultParams(9, 8)
		p.Seed = 11
		fuzzG, fuzzErr = rmat.Generate(p)
		if fuzzErr != nil {
			return
		}
		for v := 0; v < fuzzG.NumVertices(); v++ {
			if fuzzG.Degree(int32(v)) > 0 {
				fuzzSrc = int32(v)
				break
			}
		}
		fuzzRef, fuzzErr = bfs.SerialEngine().Run(fuzzG, fuzzSrc, nil)
	})
}

// FuzzFaultSchedule is the robustness contract as a fuzz target: for
// ANY parseable fault schedule, the resilient executor must never
// panic, never produce a wrong traversal, and either complete or
// return a typed *fault.Error. Faults degrade pricing and placement —
// never correctness. A completed run prices every step on the plan
// device it names, derated once by the step's slowdown.
func FuzzFaultSchedule(f *testing.F) {
	f.Add("", uint64(0))
	f.Add("crash:GPU@4", uint64(1))
	f.Add("crash:CPU@2", uint64(2))
	f.Add("transient:0.5", uint64(3))
	f.Add("transient:1", uint64(4))
	f.Add("slow:GPU@3x10", uint64(5))
	f.Add("crash:GPU@4;transient:0.2;slow:CPU@2x1.5", uint64(6))
	f.Add("crash:CPU@1;crash:GPU@1", uint64(7))
	f.Add("crash:KeplerK20x@3;transient:0.9", uint64(8))
	f.Add("rankcrash:1@2", uint64(9))
	f.Add("rankcrash:0@1;rankcrash:1@2", uint64(10))
	f.Add("ranklag:0x3@2", uint64(11))
	f.Add("exchdrop:0.4", uint64(12))
	f.Add("exchdrop:1", uint64(13))
	f.Add("rankcrash:1@2;ranklag:0x2;exchdrop:0.1;crash:GPU@4", uint64(14))
	f.Add("slow:CPUx4;transient:1", uint64(15))

	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		sched, err := fault.Parse(spec, seed)
		if err != nil {
			t.Skip() // invalid spec: rejection is the correct behavior
		}
		fuzzSetup()
		if fuzzErr != nil {
			t.Fatal(fuzzErr)
		}
		plan := CrossPlan{
			Host: archsim.SandyBridge(), Coprocessor: archsim.KeplerK20x(),
			M1: 64, N1: 64, M2: 64, N2: 64,
		}
		res, tr, timing, err := ExecuteResilient(context.Background(), fuzzG, fuzzSrc, plan, archsim.PCIe(),
			ResilientOptions{Schedule: sched, Workers: 1})
		if err != nil {
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Fatalf("spec %q: error is %v (%T), want *fault.Error", spec, err, err)
			}
			return
		}
		// Completed: the parent tree must match the serial reference.
		if err := bfs.Validate(fuzzG, res); err != nil {
			t.Fatalf("spec %q: invalid traversal: %v", spec, err)
		}
		for v := range res.Level {
			if res.Level[v] != fuzzRef.Level[v] {
				t.Fatalf("spec %q: Level[%d] = %d, want %d", spec, v, res.Level[v], fuzzRef.Level[v])
			}
		}
		if math.IsNaN(timing.Total) || math.IsInf(timing.Total, 0) || timing.Total < 0 {
			t.Fatalf("spec %q: timing total = %g", spec, timing.Total)
		}
		for i, st := range timing.Steps {
			var dev archsim.Arch
			for _, d := range plan.Devices() {
				if d.Name == st.ArchName {
					dev = d
				}
			}
			if dev.Name == "" {
				t.Fatalf("spec %q: step %d priced on %q, not a plan device", spec, st.Step, st.ArchName)
			}
			want := dev.Slowed(sched.SlowdownAt(dev.Name, dev.Kind.String(), st.Step)).StepTime(st.Dir, tr.Steps[i])
			if st.Kernel != want {
				t.Fatalf("spec %q: step %d on %s costs %g, want %g (derated once)", spec, st.Step, dev.Name, st.Kernel, want)
			}
		}

		// The sharded executor must honor the same contract under the
		// schedule's rank faults: recover onto survivors or escalate,
		// never panic, never return a wrong traversal. The schedule is
		// re-parsed because a Schedule is stateful and single-owner.
		shardSched, err := fault.Parse(spec, seed)
		if err != nil {
			t.Skip()
		}
		shardPlan := ShardedPlan{
			Device: archsim.SandyBridge(), Ranks: 2,
			Fabric: archsim.SMP(2), M: 64, N: 64,
		}
		sres, stiming, err := ExecuteShardedResilient(context.Background(), fuzzG, fuzzSrc, shardPlan, nil,
			ResilientOptions{Schedule: shardSched})
		if err != nil {
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Fatalf("spec %q (sharded): error is %v (%T), want *fault.Error", spec, err, err)
			}
			return
		}
		if err := bfs.Validate(fuzzG, sres); err != nil {
			t.Fatalf("spec %q (sharded): invalid traversal: %v", spec, err)
		}
		for v := range sres.Level {
			if sres.Level[v] != fuzzRef.Level[v] {
				t.Fatalf("spec %q (sharded): Level[%d] = %d, want %d", spec, v, sres.Level[v], fuzzRef.Level[v])
			}
		}
		if math.IsNaN(stiming.Total) || math.IsInf(stiming.Total, 0) || stiming.Total < 0 {
			t.Fatalf("spec %q (sharded): timing total = %g", spec, stiming.Total)
		}
	})
}
