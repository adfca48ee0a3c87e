package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

func testShardedPlan(ranks int) ShardedPlan {
	return ShardedPlan{
		Device: archsim.SandyBridge(),
		Ranks:  ranks,
		Fabric: archsim.SMP(ranks),
		M:      14,
		N:      24,
	}
}

func TestShardedPlanValidate(t *testing.T) {
	if err := testShardedPlan(4).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := testShardedPlan(4)
	bad.Ranks = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 ranks accepted")
	}
	mismatch := testShardedPlan(4)
	mismatch.Fabric = archsim.SMP(2)
	if err := mismatch.Validate(); err == nil {
		t.Error("fabric/rank mismatch accepted")
	}
	badMN := testShardedPlan(2)
	badMN.M = 0
	if err := badMN.Validate(); err == nil {
		t.Error("zero M accepted")
	}
	if got, want := testShardedPlan(4).Name(), "4xSandyBridge-8c-1D"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
}

// TestExecuteShardedPrices runs the real partitioned engine and checks
// the priced timing is coherent: one priced step per level, directions
// matching the traversal, a positive communication term whenever more
// than one rank exchanged bytes.
func TestExecuteShardedPrices(t *testing.T) {
	g, src := testGraph(t, 10, 8, 11)
	for _, ranks := range []int{1, 4} {
		plan := testShardedPlan(ranks)
		res, timing, err := ExecuteShardedResilient(context.Background(), g, src, plan, nil, ResilientOptions{})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if err := bfs.Validate(g, res); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(timing.Steps) != res.NumLevels() {
			t.Fatalf("ranks=%d: %d priced steps for %d levels", ranks, len(timing.Steps), res.NumLevels())
		}
		for i, st := range timing.Steps {
			if st.Dir != res.Directions[i] {
				t.Errorf("ranks=%d step %d: priced %v, ran %v", ranks, i+1, st.Dir, res.Directions[i])
			}
			if st.Kernel <= 0 {
				t.Errorf("ranks=%d step %d: non-positive kernel time", ranks, i+1)
			}
		}
		if ranks == 1 && timing.Transfers != 0 {
			t.Errorf("single rank priced %g s of transfers", timing.Transfers)
		}
		if ranks > 1 && timing.Transfers <= 0 {
			t.Errorf("ranks=%d: no communication priced despite exchanges", ranks)
		}
		if timing.TEPS() <= 0 {
			t.Errorf("ranks=%d: TEPS = %g", ranks, timing.TEPS())
		}
	}
}

// TestSimulateShardedRejectsMismatch pins the exchange-record contract:
// the per-level byte counts must come from an actual sharded traversal
// of the same depth.
func TestSimulateShardedRejectsMismatch(t *testing.T) {
	tr := testTrace(t, 9, 8, 3)
	if _, err := SimulateShardedResilient(tr, nil, testShardedPlan(2), ResilientOptions{}); err == nil {
		t.Error("empty exchange records accepted for a multi-step trace")
	}
}

// TestShardedCommunicationGrowsWithRanks is the crossover property the
// experiment tables report: on a fixed graph, the per-traversal
// communication time grows with the rank count (more, slower pairwise
// rounds), while the per-rank kernel share shrinks.
func TestShardedCommunicationGrowsWithRanks(t *testing.T) {
	g, src := testGraph(t, 11, 8, 7)
	var prevTransfers, prevKernel float64
	for i, ranks := range []int{2, 4, 8} {
		_, timing, err := ExecuteShardedResilient(context.Background(), g, src, testShardedPlan(ranks), nil, ResilientOptions{})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		kernel := timing.Total - timing.Transfers
		if i > 0 {
			if timing.Transfers < prevTransfers {
				t.Errorf("ranks=%d: transfers %g s < %g s at the previous rank count", ranks, timing.Transfers, prevTransfers)
			}
			if kernel > prevKernel {
				t.Errorf("ranks=%d: kernel %g s > %g s at the previous rank count", ranks, kernel, prevKernel)
			}
		}
		prevTransfers, prevKernel = timing.Transfers, kernel
	}
}

// TestExecuteShardedCleanParity pins the fault-free sharded path: with
// no schedule, ExecuteShardedResilient must return the engine's own
// level map, per-step scans and exchange records, and exactly the
// timing of referenceShardedTiming, on every graph × rank count ×
// fabric.
func TestExecuteShardedCleanParity(t *testing.T) {
	fabrics := []func(int) *archsim.Fabric{archsim.SMP, archsim.PCIeFabric, archsim.Eth10G}
	for _, seed := range []uint64{1, 2, 3} {
		g, src := testGraph(t, 12, 16, seed)
		for _, ranks := range []int{1, 2, 3, 4, 8} {
			for _, mk := range fabrics {
				plan := testShardedPlan(ranks)
				plan.Fabric = mk(ranks)
				name := fmt.Sprintf("seed%d/ranks%d/%s", seed, ranks, plan.Fabric.Name)
				wantRes, err := bfs.NewShardedEngine(plan.Ranks, plan.M, plan.N).Run(g, src, nil)
				if err != nil {
					t.Fatalf("%s: engine: %v", name, err)
				}
				tr, err := bfs.ComputeTrace(g, wantRes)
				if err != nil {
					t.Fatalf("%s: trace: %v", name, err)
				}
				want := referenceShardedTiming(tr, wantRes.Exchanges, plan)
				res, got, err := ExecuteShardedResilient(context.Background(), g, src, plan, nil, ResilientOptions{})
				if err != nil {
					t.Fatalf("%s: ExecuteShardedResilient: %v", name, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: timing diverges:\nwant %+v\ngot  %+v", name, want, got)
				}
				if !reflect.DeepEqual(wantRes.Level, res.Level) {
					t.Errorf("%s: level maps differ", name)
				}
				if !reflect.DeepEqual(wantRes.Exchanges, res.Exchanges) {
					t.Errorf("%s: exchanges differ:\nwant %+v\ngot  %+v", name, wantRes.Exchanges, res.Exchanges)
				}
				if !reflect.DeepEqual(wantRes.StepScans, res.StepScans) {
					t.Errorf("%s: step scans differ: want %v, got %v", name, wantRes.StepScans, res.StepScans)
				}
			}
		}
	}
}

// referenceShardedTiming is the fault-free sharded pricing on its own:
// each step charges the slowest shard for 1/Ranks of the work plus the
// fabric collective over the level's measured exchange. It is the loop
// the clean path of SimulateShardedResilient must reproduce.
func referenceShardedTiming(tr *bfs.Trace, exch []bfs.ExchangeStats, plan ShardedPlan) *Timing {
	t := &Timing{
		Plan:         plan.Name(),
		Steps:        make([]StepTiming, 0, len(tr.Steps)),
		EdgesVisited: tr.EdgesVisited,
	}
	for i, s := range tr.Steps {
		ex := exch[i]
		st := StepTiming{
			Step:     s.Step,
			ArchName: plan.Name(),
			Kind:     plan.Device.Kind,
			Dir:      ex.Dir,
			Kernel:   plan.Device.StepTime(ex.Dir, partitionStats(s, plan.Ranks)),
			Transfer: plan.Fabric.ExchangeTime(ex.FrontierBytes/int64(plan.Ranks), ex.GhostBytes),
		}
		t.Steps = append(t.Steps, st)
		t.Total += st.Kernel + st.Transfer
		t.Transfers += st.Transfer
	}
	return t
}

// TestSimulateShardedExchangeDropSurcharge pins what the pricer charges
// for dropped exchanges under the retry policy (3 retries, 50us first
// backoff, doubling): at drop probability p every level's exchange is
// inflated by the expected attempt count 1+p+p²+p³ and pays the
// expected backoff p·50us + p²·100us + p³·200us, the kernel is
// untouched, and the expected re-attempts are reported once.
func TestSimulateShardedExchangeDropSurcharge(t *testing.T) {
	g, src := testGraph(t, 11, 8, 7)
	plan := testShardedPlan(4)
	plan.Fabric = archsim.Eth10G(4)
	res, err := bfs.NewShardedEngine(plan.Ranks, plan.M, plan.N).Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := bfs.ComputeTrace(g, res)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := SimulateShardedResilient(tr, res.Exchanges, plan, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.5
	dropped, err := SimulateShardedResilient(tr, res.Exchanges, plan,
		ResilientOptions{Schedule: mustSchedule(t, "exchdrop:0.5", 1)})
	if err != nil {
		t.Fatal(err)
	}
	levels := len(tr.Steps)
	if len(dropped.Steps) != levels || len(clean.Steps) != levels {
		t.Fatalf("priced %d and %d steps for %d levels", len(clean.Steps), len(dropped.Steps), levels)
	}
	for i, st := range dropped.Steps {
		c := clean.Steps[i]
		if st.Kernel != c.Kernel {
			t.Errorf("step %d: kernel %g under drops, %g clean", st.Step, st.Kernel, c.Kernel)
		}
		want := c.Transfer*(1+p+p*p+p*p*p) + (p*50e-6 + p*p*100e-6 + p*p*p*200e-6)
		if math.Abs(st.Transfer-want) > 1e-12*want {
			t.Errorf("step %d: transfer %g, want %g (clean %g)", st.Step, st.Transfer, want, c.Transfer)
		}
	}
	if want := int(math.Ceil(float64(levels) * (p + p*p + p*p*p))); dropped.Retries != want {
		t.Errorf("retries = %d, want %d over %d levels", dropped.Retries, want, levels)
	}
	retries := 0
	for _, f := range dropped.Faults {
		if f.Action == "retry" {
			retries++
		}
	}
	if retries != 1 || len(dropped.Faults) != 1 {
		t.Errorf("fault log %v, want exactly one retry record", dropped.Faults)
	}
}
