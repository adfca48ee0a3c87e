package exp

import (
	"bytes"
	"strings"
	"testing"
)

// smallCfg keeps the fast tests fast; shape-sensitive tests use the
// default scale and skip under -short.
var smallCfg = Config{Scale: 12, EdgeFactor: 16, Seed: 1, NumRoots: 4}

func TestFrontierProfilesShape(t *testing.T) {
	profiles, err := FrontierProfiles([]int{11, 12}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("%d profiles, want 2", len(profiles))
	}
	for _, p := range profiles {
		// Figs. 1-2's claim: small at first, peaks in the middle — the
		// largest frontier is at neither the first nor the last level.
		peak := 0
		for i, s := range p.Steps {
			if s.FrontierVertices > p.Steps[peak].FrontierVertices {
				peak = i
			}
		}
		if len(p.Steps) < 3 || peak == 0 || peak == len(p.Steps)-1 {
			t.Errorf("SCALE %d: frontier does not peak in the middle", p.Scale)
		}
		if p.Steps[0].FrontierVertices != 1 {
			t.Errorf("SCALE %d: first frontier has %d vertices, want 1", p.Scale, p.Steps[0].FrontierVertices)
		}
	}
}

func TestDirectionComparisonShape(t *testing.T) {
	rows, err := DirectionComparison(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("only %d levels", len(rows))
	}
	// Fig. 3's claim: top-down wins the first level, bottom-up wins
	// some middle level.
	if rows[0].TopDown >= rows[0].BottomUp {
		t.Errorf("level 1: top-down %g not faster than bottom-up %g", rows[0].TopDown, rows[0].BottomUp)
	}
	buWins := false
	for _, r := range rows[1 : len(rows)-1] {
		if r.BottomUp < r.TopDown {
			buWins = true
		}
	}
	if !buWins {
		t.Error("bottom-up never wins a middle level")
	}
}

func TestBestSwitchingPointsVary(t *testing.T) {
	rows, err := BestSwitchingPoints([]int{13, 14}, []int{16, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.BestM < 1 || r.BestM > 300 {
			t.Errorf("best M %g out of search range", r.BestM)
		}
	}
	// Table III's claim: the best switching point varies across graphs.
	allSame := true
	for _, r := range rows[1:] {
		if r.BestM != rows[0].BestM || r.BestN != rows[0].BestN {
			allSame = false
		}
	}
	if allSame {
		t.Error("best switching point identical for all graphs; Table III's premise lost")
	}
}

func TestStepByStepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale workload")
	}
	res, err := StepByStepOptimization(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timings) != 8 {
		t.Fatalf("%d approaches, want 8 (Table IV)", len(res.Timings))
	}
	byName := map[string]float64{}
	for _, timing := range res.Timings {
		byName[timing.Plan] = timing.Total
	}
	// Paper Table IV orderings.
	if byName["GPUCB"] >= byName["GPUTD"] || byName["GPUCB"] >= byName["GPUBU"] {
		t.Errorf("GPU combination not fastest on GPU: %v", byName)
	}
	if byName["CPUCB"] >= byName["CPUTD"] || byName["CPUCB"] >= byName["CPUBU"] {
		t.Errorf("CPU combination not fastest on CPU: %v", byName)
	}
	if byName["CPUTD+GPUCB"] >= byName["GPUCB"] || byName["CPUTD+GPUCB"] >= byName["CPUCB"] {
		t.Errorf("cross-architecture combination not fastest: %v", byName)
	}
}

func TestCrossSpeedupsPositive(t *testing.T) {
	rows, err := CrossSpeedups(smallCfg, [][2]int{{13, 16}, {14, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("SCALE %d: cross speedup %.2fx not above 1", r.Scale, r.Speedup)
		}
	}
}

func TestCombinationComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale workload")
	}
	rows, err := CombinationComparison(DefaultConfig(), [][2]int{{17, 16}, {17, 32}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Fig. 9: cross-architecture beats every single-architecture
		// combination; MIC is the slowest.
		if r.SpeedupOverMIC <= 1 || r.SpeedupOverCPU <= 1 || r.SpeedupOverGPU <= 1 {
			t.Errorf("%s: cross not fastest: %+v", r.Label, r)
		}
		if !(r.MIC < r.CPU && r.MIC < r.GPU) {
			t.Errorf("%s: MIC combination not slowest: %+v", r.Label, r)
		}
		if r.SpeedupOverMIC < r.SpeedupOverCPU || r.SpeedupOverMIC < r.SpeedupOverGPU {
			t.Errorf("%s: MIC speedup should dominate: %+v", r.Label, r)
		}
	}
}

func TestStrongScalingMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload")
	}
	// Strong scaling needs a work-dominated graph (the paper uses its
	// largest, SCALE 22); at tiny scales the per-core barrier cost
	// wins and adding cores legitimately hurts.
	rows, err := StrongScaling(Config{Scale: 18, EdgeFactor: 16, Seed: 1, NumRoots: 4})
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string][]float64{}
	for _, r := range rows {
		perf[r.Arch] = append(perf[r.Arch], r.GTEPS)
	}
	// Fig. 10a: performance grows with cores. Allow the curve to
	// flatten at the top (barrier costs and utilization saturate), but
	// no step may regress meaningfully and the full sweep must scale.
	for arch, series := range perf {
		for i := 1; i < len(series); i++ {
			if series[i] < 0.97*series[i-1] {
				t.Errorf("%s: GTEPS %v regresses at step %d", arch, series, i)
			}
		}
		if last, first := series[len(series)-1], series[0]; last < 1.5*first {
			t.Errorf("%s: strong scaling only %.2fx from min to max cores", arch, last/first)
		}
	}
}

func TestWeakScalingHolds(t *testing.T) {
	rows, err := WeakScaling(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string][]float64{}
	for _, r := range rows {
		perf[r.Arch] = append(perf[r.Arch], r.GTEPS)
	}
	// Fig. 10b: performance grows as cores and workload grow together.
	for arch, series := range perf {
		if series[len(series)-1] <= series[0] {
			t.Errorf("%s: weak scaling regressed: %v", arch, series)
		}
	}
}

func TestAveragePerformanceCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-graph workload")
	}
	cfg := DefaultConfig()
	cfg.NumRoots = 4
	rows, err := AveragePerformance(cfg, []int{16, 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	small, large := rows[0], rows[1]
	// Table VI: GPU wins the small size, CPU the large one; MIC last.
	if small.GPU <= small.CPU {
		t.Errorf("small size: GPU %.3f not above CPU %.3f", small.GPU, small.CPU)
	}
	if large.CPU <= large.GPU {
		t.Errorf("large size: CPU %.3f not above GPU %.3f", large.CPU, large.GPU)
	}
	for _, r := range rows {
		if r.MIC >= r.CPU || r.MIC >= r.GPU {
			t.Errorf("MIC not slowest at scale %d: %+v", r.Scale, r)
		}
	}
}

func TestExternalComparisons(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale workload")
	}
	rows, err := ExternalComparisons(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d comparison rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %.2fx not above 1", r.Name, r.Speedup)
		}
	}
}

func TestStrategyComparisonSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus training")
	}
	model, err := TrainDefaultModel(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := StrategyComparison(smallCfg, model, []int{13}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.Exhaustive > r.Regression || r.Exhaustive > r.Average || r.Exhaustive > r.Random {
		t.Errorf("exhaustive is not the lower bound: %+v", r.StrategyTimes)
	}
	if r.Worst < r.Random || r.Worst < r.Regression {
		t.Errorf("worst is not the upper bound: %+v", r.StrategyTimes)
	}
}

func TestRenderers(t *testing.T) {
	profiles, err := FrontierProfiles([]int{10}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFrontierProfiles(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "|V|cq") {
		t.Error("frontier render missing header")
	}

	dirs, err := DirectionComparison(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderDirectionTimes(&buf, dirs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bottom-up") {
		t.Error("direction render missing header")
	}

	buf.Reset()
	if err := RenderBestM(&buf, []BestMRow{{Scale: 12, EdgeFactor: 8, BestM: 60, BestN: 10}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "60") {
		t.Error("best-M render missing value")
	}

	buf.Reset()
	if err := RenderCrossSpeedups(&buf, []CrossSpeedupRow{{Vertices: 4096, Edges: 65536, Speedup: 12}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "12x") {
		t.Error("cross-speedup render missing value")
	}

	buf.Reset()
	if err := RenderScaling(&buf, []ScalingRow{{Arch: "CPU", Cores: 4, GTEPS: 1.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CPU") {
		t.Error("scaling render missing arch")
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.setDefaults()
	d := DefaultConfig()
	if cfg != d {
		t.Errorf("zero config defaults = %+v, want %+v", cfg, d)
	}
	// Partial overrides survive.
	cfg = Config{Scale: 10}
	cfg.setDefaults()
	if cfg.Scale != 10 || cfg.EdgeFactor != d.EdgeFactor {
		t.Errorf("partial override mangled: %+v", cfg)
	}
}
