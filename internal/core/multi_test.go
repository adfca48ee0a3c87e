package core

import (
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

func TestMultiCrossName(t *testing.T) {
	cpu, mic := archsim.SandyBridge(), archsim.KnightsCorner()
	p := MultiCross{Host: cpu, Coprocessors: []archsim.Arch{mic, mic, mic}, M1: 64, N1: 64, M2: 64, N2: 64}
	if got := p.Name(); got != "CPUTD+3xMICCB" {
		t.Errorf("name = %q", got)
	}
}

func TestMultiCrossValidate(t *testing.T) {
	cpu := archsim.SandyBridge()
	if (MultiCross{Host: cpu, M1: 1, N1: 1, M2: 1, N2: 1}).Validate() == nil {
		t.Error("no coprocessors accepted")
	}
	mic := archsim.KnightsCorner()
	if (MultiCross{Host: cpu, Coprocessors: []archsim.Arch{mic}, M1: 0, N1: 1, M2: 1, N2: 1}).Validate() == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := SimulateMulti(&bfs.Trace{}, MultiCross{Host: cpu}, archsim.PCIe()); err == nil {
		t.Error("SimulateMulti accepted invalid plan")
	}
}

func TestPartitionStats(t *testing.T) {
	s := bfs.LevelStats{
		FrontierVertices: 100, FrontierEdges: 1000, Discovered: 60,
		UnvisitedVertices: 300, UnvisitedEdges: 3000, BottomUpScans: 900,
		MaxScan: 50, MaxFrontierDegree: 40, GraphVertices: 1 << 16,
	}
	p := partitionStats(s, 3)
	if p.BottomUpScans != 300 || p.UnvisitedVertices != 100 {
		t.Errorf("partitioned stats = %+v", p)
	}
	if p.MaxScan != 50 || p.GraphVertices != s.GraphVertices {
		t.Error("critical path or bitmap size should not be divided")
	}
	if got := partitionStats(s, 1); got != s {
		t.Error("k=1 should be identity")
	}
}

func TestSimulateMultiSingleMatchesCross(t *testing.T) {
	// With one coprocessor, the multi plan must price exactly like
	// CrossPlan (same decisions, same costs), also when level 1
	// already goes to the coprocessor and no handoff is paid.
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	link := archsim.PCIe()
	for _, c := range []struct {
		tr             *bfs.Trace
		m1, n1, m2, n2 float64
	}{
		{testTrace(t, 12, 16, 1), 64, 64, 64, 64},
		{testTrace(t, 10, 8, 7), 1000, 1000, 64, 64},
	} {
		multi, err := SimulateMulti(c.tr, MultiCross{
			Host: cpu, Coprocessors: []archsim.Arch{gpu},
			M1: c.m1, N1: c.n1, M2: c.m2, N2: c.n2,
		}, link)
		if err != nil {
			t.Fatal(err)
		}
		single := Simulate(c.tr, CrossPlan{Host: cpu, Coprocessor: gpu, M1: c.m1, N1: c.n1, M2: c.m2, N2: c.n2}, link)
		if diff := multi.Total - single.Total; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("(%g,%g,%g,%g): 1-coprocessor multi %g != cross %g", c.m1, c.n1, c.m2, c.n2, multi.Total, single.Total)
		}
	}
}

func TestSimulateMultiMICScaling(t *testing.T) {
	// The Tianhe-2 scenario: adding Xeon Phis must speed up the
	// bottom-up middle on a graph big enough for the work to dominate
	// the all-reduce.
	tr := testTrace(t, 15, 16, 1)
	cpu, mic := archsim.SandyBridge(), archsim.KnightsCorner()
	link := archsim.PCIe()
	times := make([]float64, 0, 3)
	for k := 1; k <= 3; k++ {
		cops := make([]archsim.Arch, k)
		for i := range cops {
			cops[i] = mic
		}
		timing, err := SimulateMulti(tr, MultiCross{
			Host: cpu, Coprocessors: cops, M1: 64, N1: 64, M2: 64, N2: 64,
		}, link)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, timing.Total)
	}
	if !(times[1] < times[0] && times[2] < times[1]) {
		t.Errorf("adding MICs did not help: %v", times)
	}
	if times[2] < times[0]/3 {
		t.Errorf("3x MIC superlinear (%v): all-reduce cost missing?", times)
	}
}

func TestSimulateMultiTransfersAccounted(t *testing.T) {
	tr := testTrace(t, 13, 16, 2)
	cpu, mic := archsim.SandyBridge(), archsim.KnightsCorner()
	timing, err := SimulateMulti(tr, MultiCross{
		Host: cpu, Coprocessors: []archsim.Arch{mic, mic},
		M1: 64, N1: 64, M2: 64, N2: 64,
	}, archsim.PCIe())
	if err != nil {
		t.Fatal(err)
	}
	if timing.Transfers <= 0 {
		t.Error("no transfer time accounted for broadcast + all-reduce")
	}
	free, err := SimulateMulti(tr, MultiCross{
		Host: cpu, Coprocessors: []archsim.Arch{mic, mic},
		M1: 64, N1: 64, M2: 64, N2: 64,
	}, archsim.SameDevice())
	if err != nil {
		t.Fatal(err)
	}
	if free.Total >= timing.Total {
		t.Error("free link not cheaper")
	}
}
