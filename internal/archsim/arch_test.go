package archsim

import (
	"math"
	"testing"
	"testing/quick"

	"crossbfs/internal/bfs"
)

// midLevel is a representative big-frontier step (saturating work).
var midLevel = bfs.LevelStats{
	Step: 4, FrontierVertices: 100000, FrontierEdges: 3000000,
	Discovered: 80000, UnvisitedVertices: 120000, UnvisitedEdges: 2500000,
	BottomUpScans: 400000, MaxFrontierDegree: 5000, MaxScan: 4000,
}

// earlyLevel is a tiny-frontier step with a hub neighbor (the GPU
// disaster regime, Table IV level 2).
var earlyLevel = bfs.LevelStats{
	Step: 2, FrontierVertices: 30, FrontierEdges: 40000,
	Discovered: 20000, UnvisitedVertices: 250000, UnvisitedEdges: 7000000,
	BottomUpScans: 3000000, MaxFrontierDegree: 20000, MaxScan: 20000,
}

func TestKindString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" || MIC.String() != "MIC" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestTableIIValues(t *testing.T) {
	// Datasheet values straight from the paper's Table II.
	cpu, gpu, mic := SandyBridge(), KeplerK20x(), KnightsCorner()
	if cpu.ClockGHz != 2.00 || gpu.ClockGHz != 0.73 || mic.ClockGHz != 1.09 {
		t.Error("clock speeds do not match Table II")
	}
	if cpu.MeasuredBW != 34 || gpu.MeasuredBW != 188 || mic.MeasuredBW != 159 {
		t.Error("measured bandwidths do not match Table II")
	}
	if cpu.PeakSPGflops != 256 || gpu.PeakSPGflops != 3950 || mic.PeakSPGflops != 2020 {
		t.Error("SP peaks do not match Table II")
	}
}

func TestRCMBMatchesTableII(t *testing.T) {
	// Table II lists SP RCMB: CPU 7.52 (= 256/34... the paper uses
	// measured-adjacent figures; we compute peak/theoretical: 256/51.2
	// = 5.0). The ordering CPU < MIC < GPU is the claim that matters
	// (§III-B: higher RCMB = worse mismatch for memory-bound BFS).
	cpu, gpu, mic := SandyBridge().RCMB(), KeplerK20x().RCMB(), KnightsCorner().RCMB()
	if !(cpu < mic && mic < gpu) {
		t.Errorf("RCMB ordering wrong: CPU %.2f MIC %.2f GPU %.2f", cpu, mic, gpu)
	}
	if AlgorithmRCMA >= cpu {
		t.Error("algorithm RCMA should be below every architecture RCMB")
	}
}

func TestUtilizationCurve(t *testing.T) {
	gpu := KeplerK20x()
	if gpu.Utilization(0) != 0 {
		t.Error("zero items should have zero utilization")
	}
	if u := gpu.Utilization(int64(gpu.HalfUtil)); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization at HalfUtil = %g, want 0.5", u)
	}
	// Monotone property.
	f := func(a, b uint32) bool {
		x, y := int64(a%1000000), int64(b%1000000)
		if x > y {
			x, y = y, x
		}
		return gpu.Utilization(x) <= gpu.Utilization(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCPUSaturatesBeforeGPU(t *testing.T) {
	cpu, gpu := SandyBridge(), KeplerK20x()
	const smallFrontier = 100
	if cpu.Utilization(smallFrontier) < 0.8 {
		t.Errorf("CPU utilization at %d items = %g, want > 0.8", smallFrontier, cpu.Utilization(smallFrontier))
	}
	if gpu.Utilization(smallFrontier) > 0.1 {
		t.Errorf("GPU utilization at %d items = %g, want < 0.1", smallFrontier, gpu.Utilization(smallFrontier))
	}
}

func TestGPUWinsBigBottomUpLosesSmallTopDown(t *testing.T) {
	cpu, gpu := SandyBridge(), KeplerK20x()
	// Small-frontier top-down: CPU must win clearly (paper: 11x over
	// the first two levels).
	if gpu.TopDownTime(earlyLevel) < 3*cpu.TopDownTime(earlyLevel) {
		t.Errorf("GPU early TD %.6f vs CPU %.6f: want GPU >= 3x slower",
			gpu.TopDownTime(earlyLevel), cpu.TopDownTime(earlyLevel))
	}
	// Big-frontier bottom-up: GPU must win (paper: ~3x at levels 3-5).
	if gpu.BottomUpTime(midLevel) > cpu.BottomUpTime(midLevel) {
		t.Errorf("GPU mid BU %.6f vs CPU %.6f: want GPU faster",
			gpu.BottomUpTime(midLevel), cpu.BottomUpTime(midLevel))
	}
}

func TestBottomUpDivergencePenalty(t *testing.T) {
	gpu := KeplerK20x()
	// Same totals, different scan distribution: long fruitless scans
	// (high mean) must cost the GPU more than short early-exit scans.
	long := midLevel
	long.BottomUpScans = 3000000
	long.UnvisitedVertices = 120000 // mean scan 25
	short := midLevel
	short.BottomUpScans = 3000000
	short.UnvisitedVertices = 1500000 // mean scan 2
	if gpu.BottomUpTime(long) <= gpu.BottomUpTime(short) {
		t.Error("long scans not penalized on GPU")
	}
	// The CPU (ScanRef 0) is insensitive to scan length per se; with
	// more parallelism available, the short case can only be faster.
	cpu := SandyBridge()
	if cpu.BottomUpTime(short) > cpu.BottomUpTime(long)*1.01 {
		t.Error("CPU penalized short scans")
	}
}

func TestCriticalPathBindsHubLevels(t *testing.T) {
	gpu := KeplerK20x()
	withHub := earlyLevel
	noHub := earlyLevel
	noHub.MaxFrontierDegree = 100
	if gpu.TopDownTime(withHub) <= gpu.TopDownTime(noHub) {
		t.Error("hub critical path not reflected in GPU top-down time")
	}
}

func TestStepTimeDispatch(t *testing.T) {
	cpu := SandyBridge()
	if cpu.StepTime(bfs.TopDown, midLevel) != cpu.TopDownTime(midLevel) {
		t.Error("StepTime(TopDown) mismatch")
	}
	if cpu.StepTime(bfs.BottomUp, midLevel) != cpu.BottomUpTime(midLevel) {
		t.Error("StepTime(BottomUp) mismatch")
	}
}

func TestEmptyStepCostsOnlyLaunch(t *testing.T) {
	cpu := SandyBridge()
	var empty bfs.LevelStats
	if got := cpu.TopDownTime(empty); got != cpu.LaunchOverhead {
		t.Errorf("empty TD step = %g, want launch %g", got, cpu.LaunchOverhead)
	}
	if got := cpu.BottomUpTime(empty); got != cpu.LaunchOverhead {
		t.Errorf("empty BU step = %g, want launch %g", got, cpu.LaunchOverhead)
	}
}

func TestMoreBandwidthNeverSlower(t *testing.T) {
	f := func(bwDelta uint8) bool {
		a := SandyBridge()
		b := a
		b.MeasuredBW = a.MeasuredBW + float64(bwDelta)
		return b.TopDownTime(midLevel) <= a.TopDownTime(midLevel)+1e-15 &&
			b.BottomUpTime(midLevel) <= a.BottomUpTime(midLevel)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimesPositiveAndFinite(t *testing.T) {
	archs := []Arch{SandyBridge(), KeplerK20x(), KnightsCorner()}
	steps := []bfs.LevelStats{midLevel, earlyLevel, {Step: 1, FrontierVertices: 1, FrontierEdges: 3, UnvisitedVertices: 10, BottomUpScans: 12, MaxScan: 3, MaxFrontierDegree: 3}}
	for _, a := range archs {
		for _, s := range steps {
			for _, d := range []bfs.Direction{bfs.TopDown, bfs.BottomUp} {
				got := a.StepTime(d, s)
				if got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
					t.Errorf("%s %s: time %g", a.Name, d, got)
				}
			}
		}
	}
}

func TestWithCores(t *testing.T) {
	cpu := SandyBridge()
	half := cpu.WithCores(4)
	if half.Cores != 4 {
		t.Errorf("Cores = %d", half.Cores)
	}
	if half.TDRate >= cpu.TDRate {
		t.Error("rate did not shrink with fewer cores")
	}
	if half.MeasuredBW >= cpu.MeasuredBW {
		t.Error("bandwidth did not shrink with fewer cores")
	}
	if half.LaunchOverhead >= cpu.LaunchOverhead {
		t.Error("launch overhead did not shrink with fewer cores")
	}
	// Identity cases.
	if cpu.WithCores(8).Name != cpu.Name {
		t.Error("WithCores(same) changed the arch")
	}
	if cpu.WithCores(0).Name != cpu.Name {
		t.Error("WithCores(0) changed the arch")
	}
}

func TestStrongScalingImproves(t *testing.T) {
	// Fig. 10a's premise: more cores, faster level.
	cpu := SandyBridge()
	prev := math.Inf(1)
	for _, c := range []int{1, 2, 4, 8} {
		tt := cpu.WithCores(c).TopDownTime(midLevel)
		if tt >= prev {
			t.Errorf("top-down time at %d cores = %g, not faster than fewer cores (%g)", c, tt, prev)
		}
		prev = tt
	}
}

// serialVersion is the single-core, single-thread version of a, the
// paper's "serial version" comparison (§V-C). Unlike WithCores(1), it
// runs at the measured single-thread rate with no parallel overheads.
func serialVersion(a Arch) Arch {
	s := a.WithCores(1)
	s.TDRate = a.SerialRate
	s.BURate = a.SerialRate * 1.5 // scans are branchier but atomic-free
	s.ThreadRate = a.SerialRate
	s.HalfUtil = 0.5        // one item keeps one thread busy
	s.LaunchOverhead = 2e-6 // plain function call per level
	return s
}

func TestSerialVersionGap(t *testing.T) {
	// §V-C: the serial CPU outruns the serial MIC by ~20x.
	cpu, mic := serialVersion(SandyBridge()), serialVersion(KnightsCorner())
	ratio := mic.TopDownTime(midLevel) / cpu.TopDownTime(midLevel)
	if ratio < 10 || ratio > 40 {
		t.Errorf("serial CPU/MIC gap = %.1fx, want ~20x (10-40)", ratio)
	}
}

func TestMICSlowerThanCPUOverall(t *testing.T) {
	// §V-C: the 8-core CPU averages ~3.3x over the 60-core MIC.
	cpu, mic := SandyBridge(), KnightsCorner()
	r := mic.TopDownTime(midLevel) / cpu.TopDownTime(midLevel)
	if r < 1.5 {
		t.Errorf("parallel MIC/CPU top-down ratio = %.2f, want >= 1.5", r)
	}
}

func TestSlowedDeratesStepTimes(t *testing.T) {
	cpu := SandyBridge()
	slow := cpu.Slowed(3)
	if slow.Name != cpu.Name {
		t.Errorf("Slowed changed Name to %q; device identity must survive a slowdown", slow.Name)
	}
	for _, dir := range []bfs.Direction{bfs.TopDown, bfs.BottomUp} {
		fast, slowT := cpu.StepTime(dir, midLevel), slow.StepTime(dir, midLevel)
		if slowT <= fast {
			t.Errorf("%v: slowed step time %g not above nominal %g", dir, slowT, fast)
		}
		// Launch overhead is not derated, so the ratio is bounded by
		// the factor but must reflect most of it on a mid-size level.
		if ratio := slowT / fast; ratio > 3.0001 || ratio < 1.2 {
			t.Errorf("%v: slowdown ratio %.2f, want in (1.2, 3]", dir, ratio)
		}
	}
}

func TestSlowedIdentityBelowOne(t *testing.T) {
	cpu := SandyBridge()
	for _, f := range []float64{1, 0.5, 0, -2, math.NaN()} {
		if got := cpu.Slowed(f); got != cpu {
			t.Errorf("Slowed(%g) modified the arch", f)
		}
	}
}
