package core

import (
	"context"
	"math"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
)

func testGraph(t *testing.T, scale, ef int, seed uint64) (*graph.CSR, int32) {
	t.Helper()
	p := rmat.DefaultParams(scale, ef)
	p.Seed = seed
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return g, int32(v)
		}
	}
	t.Fatal("graph has no edges")
	return nil, 0
}

func testTrace(t *testing.T, scale, ef int, seed uint64) *bfs.Trace {
	t.Helper()
	g, src := testGraph(t, scale, ef, seed)
	tr, err := bfs.TraceFrom(context.Background(), g, src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPlanNames(t *testing.T) {
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()
	cases := []struct {
		plan Plan
		want string
	}{
		{FixedDirection(gpu, bfs.TopDown), "GPUTD"},
		{FixedDirection(gpu, bfs.BottomUp), "GPUBU"},
		{FixedDirection(cpu, bfs.TopDown), "CPUTD"},
		{Combination(cpu, 64, 64), "CPUCB"},
		{Combination(mic, 64, 64), "MICCB"},
		{CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64}, "CPUTD+GPUCB"},
		{CrossTDBU{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64}, "CPUTD+GPUBU"},
	}
	for _, c := range cases {
		if got := c.plan.Name(); got != c.want {
			t.Errorf("plan name = %q, want %q", got, c.want)
		}
	}
}

func TestCrossPlanValidate(t *testing.T) {
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	good := CrossPlan{Host: cpu, Coprocessor: gpu, M1: 1, N1: 1, M2: 1, N2: 1}
	if good.Validate() != nil {
		t.Error("valid cross plan rejected")
	}
	bad := good
	bad.M2 = 0
	if bad.Validate() == nil {
		t.Error("zero threshold accepted")
	}
}

func TestCrossPlanNeverReturnsToHost(t *testing.T) {
	// Algorithm 3: once on the coprocessor, stay there, even when the
	// frontier shrinks back below the (M1, N1) boundary.
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	plan := CrossPlan{Host: cpu, Coprocessor: gpu, M1: 10, N1: 10, M2: 10, N2: 10}
	st := plan.Begin()

	small := bfs.StepInfo{Step: 1, FrontierVertices: 1, FrontierEdges: 1, TotalVertices: 1000, TotalEdges: 10000}
	big := bfs.StepInfo{Step: 2, FrontierVertices: 900, FrontierEdges: 9000, TotalVertices: 1000, TotalEdges: 10000}

	if p := st.Place(small); p.Arch.Kind != archsim.CPU || p.Dir != bfs.TopDown {
		t.Fatalf("step 1 placement = %s %s, want CPU TD", p.Arch.Kind, p.Dir)
	}
	if p := st.Place(big); p.Arch.Kind != archsim.GPU || p.Dir != bfs.BottomUp {
		t.Fatalf("step 2 placement = %s %s, want GPU BU", p.Arch.Kind, p.Dir)
	}
	// Frontier shrinks again: must stay on GPU (top-down there).
	if p := st.Place(small); p.Arch.Kind != archsim.GPU || p.Dir != bfs.TopDown {
		t.Fatalf("step 3 placement = %s %s, want GPU TD", p.Arch.Kind, p.Dir)
	}
}

func TestCrossTDBUNeverTopDownOnGPU(t *testing.T) {
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	st := CrossTDBU{Host: cpu, Coprocessor: gpu, M1: 10, N1: 10}.Begin()
	big := bfs.StepInfo{Step: 1, FrontierVertices: 900, FrontierEdges: 9000, TotalVertices: 1000, TotalEdges: 10000}
	small := bfs.StepInfo{Step: 2, FrontierVertices: 1, FrontierEdges: 1, TotalVertices: 1000, TotalEdges: 10000}
	if p := st.Place(big); p.Arch.Kind != archsim.GPU || p.Dir != bfs.BottomUp {
		t.Fatalf("big frontier: %s %s", p.Arch.Kind, p.Dir)
	}
	if p := st.Place(small); p.Dir != bfs.BottomUp {
		t.Fatalf("CrossTDBU chose %s on the coprocessor, want BU always", p.Dir)
	}
}

func TestSimulateAccounting(t *testing.T) {
	tr := testTrace(t, 9, 8, 1)
	plan := Combination(archsim.SandyBridge(), 64, 64)
	timing := Simulate(tr, plan, archsim.PCIe())
	if len(timing.Steps) != len(tr.Steps) {
		t.Fatalf("%d timing steps for %d trace steps", len(timing.Steps), len(tr.Steps))
	}
	var total, transfers float64
	for _, s := range timing.Steps {
		if s.Kernel <= 0 {
			t.Errorf("step %d kernel time %g", s.Step, s.Kernel)
		}
		total += s.Kernel + s.Transfer
		transfers += s.Transfer
	}
	if math.Abs(total-timing.Total) > 1e-12 {
		t.Errorf("Total %g != sum of steps %g", timing.Total, total)
	}
	if transfers != 0 {
		t.Error("single-architecture plan paid transfers")
	}
	if timing.Plan != "CPUCB" {
		t.Errorf("plan name %q", timing.Plan)
	}
}

func TestSimulateCrossChargesOneTransfer(t *testing.T) {
	tr := testTrace(t, 9, 16, 2)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	plan := CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64}
	timing := Simulate(tr, plan, archsim.PCIe())
	crossings := 0
	for _, s := range timing.Steps {
		if s.Transfer > 0 {
			crossings++
		}
	}
	if crossings != 1 {
		t.Errorf("cross plan paid %d transfers, want exactly 1 (never returns to host)", crossings)
	}
	if timing.Transfers <= 0 {
		t.Error("no transfer time accounted")
	}
}

func TestSimulateFreeLinkCheaper(t *testing.T) {
	tr := testTrace(t, 9, 16, 2)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	plan := CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64}
	paid := Simulate(tr, plan, archsim.PCIe())
	free := Simulate(tr, plan, archsim.SameDevice())
	if free.Total >= paid.Total {
		t.Errorf("free link total %g >= paid link total %g", free.Total, paid.Total)
	}
	if free.Transfers != 0 {
		t.Error("free link accrued transfer time")
	}
}

func TestTEPS(t *testing.T) {
	timing := &Timing{Total: 2, EdgesVisited: 8}
	if got := timing.TEPS(); got != 2 {
		t.Errorf("TEPS = %g, want 2 (8 entries / 2 undirected / 2s)", got)
	}
	if got := timing.GTEPS(); got != 2e-9 {
		t.Errorf("GTEPS = %g", got)
	}
	empty := &Timing{}
	if empty.TEPS() != 0 {
		t.Error("zero-time TEPS should be 0")
	}
}

func TestExecuteMatchesSimulate(t *testing.T) {
	g, src := testGraph(t, 9, 16, 3)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	link := archsim.PCIe()
	plans := []Plan{
		FixedDirection(cpu, bfs.TopDown),
		FixedDirection(gpu, bfs.BottomUp),
		Combination(gpu, 64, 64),
		CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64},
	}
	for _, plan := range plans {
		res, tr, timing, err := ExecuteResilient(context.Background(), g, src, plan, link, ResilientOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", plan.Name(), err)
		}
		if err := bfs.Validate(g, res); err != nil {
			t.Errorf("%s: result invalid: %v", plan.Name(), err)
		}
		// With no fault schedule, executing a plan must price it exactly
		// as an independent Simulate replay does.
		replay := Simulate(tr, plan, link)
		if math.Abs(replay.Total-timing.Total) > 1e-12 {
			t.Errorf("%s: execute %g != simulate %g", plan.Name(), timing.Total, replay.Total)
		}
	}
}

// TestPaperShape asserts the orderings the paper's Table IV and Fig. 9
// report, at this repository's default experiment scale. These are the
// calibration contract of the simulator.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-17 graph generation in -short mode")
	}
	g, src := testGraph(t, 17, 16, 1)
	tr, err := bfs.TraceFrom(context.Background(), g, src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()
	link := archsim.PCIe()
	sim := func(p Plan) float64 { return Simulate(tr, p, link).Total }

	gputd := sim(FixedDirection(gpu, bfs.TopDown))
	gpubu := sim(FixedDirection(gpu, bfs.BottomUp))
	gpucb := sim(Combination(gpu, 64, 64))
	cputd := sim(FixedDirection(cpu, bfs.TopDown))
	cpubu := sim(FixedDirection(cpu, bfs.BottomUp))
	cpucb := sim(Combination(cpu, 64, 64))
	miccb := sim(Combination(mic, 64, 64))
	cross := sim(CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64})

	// Combination beats both pure directions on every architecture.
	if !(gpucb < gputd && gpucb < gpubu) {
		t.Errorf("GPU combination not fastest on GPU: CB %g TD %g BU %g", gpucb, gputd, gpubu)
	}
	if !(cpucb < cputd && cpucb < cpubu) {
		t.Errorf("CPU combination not fastest on CPU: CB %g TD %g BU %g", cpucb, cputd, cpubu)
	}
	// Cross-architecture beats every single-architecture combination
	// (paper: 8.5x over MIC, 2.6x over CPU, 2.2x over GPU).
	if !(cross < gpucb && cross < cpucb && cross < miccb) {
		t.Errorf("cross %g not fastest (GPUCB %g CPUCB %g MICCB %g)", cross, gpucb, cpucb, miccb)
	}
	// The MIC combination is the slowest combination by a wide margin.
	if miccb < 2*cross {
		t.Errorf("MICCB %g vs cross %g: want >= 2x gap", miccb, cross)
	}
	// GPU pure runs lose to CPU pure runs at this scale (paper Table
	// IV: GPUTD is the 1.0x baseline, CPUTD is 3.8x).
	if gputd < cputd {
		t.Errorf("GPUTD %g faster than CPUTD %g", gputd, cputd)
	}
}

func TestMistunedCrossIsExpensive(t *testing.T) {
	// The paper's Fig. 8 premise: for cross-architecture combination a
	// bad switching point is catastrophic (695x worst-to-best there).
	tr := testTrace(t, 16, 16, 5)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	link := archsim.PCIe()
	best := math.Inf(1)
	worst := 0.0
	sweep := []float64{1, 2, 5, 10, 50, 100, 300, 1000, 1e6}
	for _, m1 := range sweep {
		for _, m2 := range sweep {
			tt := Simulate(tr, CrossPlan{Host: cpu, Coprocessor: gpu, M1: m1, N1: m1, M2: m2, N2: m2}, link).Total
			best = math.Min(best, tt)
			worst = math.Max(worst, tt)
		}
	}
	if worst < 3*best {
		t.Errorf("cross-arch (M1,M2) sweep spread only %.2fx (best %g worst %g)", worst/best, best, worst)
	}
}
