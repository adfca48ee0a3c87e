package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
)

func cfg(scale int, plan string) config {
	return config{
		scale:      scale,
		edgeFactor: 8,
		seed:       1,
		source:     -1,
		planName:   plan,
		m1:         64, n1: 64, m2: 64, n2: 64,
		faultSeed: 1,
	}
}

func TestRunAllPlans(t *testing.T) {
	c := cfg(10, "all")
	c.perLevel = true
	c.showCounts = true
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

// TestRunTraceExport is the CLI half of the observability acceptance
// test: bfsrun -trace must produce a Chrome trace whose per-level
// events reconstruct the hybrid's exact TD->BU->TD switch pattern.
func TestRunTraceExport(t *testing.T) {
	c := cfg(12, "cputd+gpucb")
	c.metrics = true
	c.tracePath = filepath.Join(t.TempDir(), "out.json")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := obs.ValidateTrace(data)
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if s.Levels == 0 || s.SimSteps == 0 {
		t.Fatalf("trace missing timelines: %d levels, %d sim steps", s.Levels, s.SimSteps)
	}
	// The reference traversal is serial top-down, so the real timeline
	// never switches; the simulated cross plan must show the paper's
	// TD-then-BU shape: at least one switch into bottom-up.
	for _, tid := range obs.TimelineIDs(s.LevelDirs) {
		for _, d := range s.LevelDirs[tid] {
			if d != "TD" {
				t.Errorf("reference traversal lane has non-TD level %q", d)
			}
		}
	}
	sawBU := false
	for _, tid := range obs.TimelineIDs(s.SimDirs) {
		if steps := obs.SwitchSteps(s.SimDirs[tid]); len(steps) > 0 {
			sawBU = true
		}
	}
	if !sawBU {
		t.Error("no simulated timeline ever switches direction; cross plan trace is wrong")
	}
	if s.Handoffs == 0 {
		t.Error("cross plan trace has no device handoff")
	}
}

// TestRunSampledTrace drives -sample: every timeline — the reference
// traversal and the 9 plan timelines all carry engine-stamped
// TraversalIDs — is kept or dropped whole, and whatever survives is
// still a valid trace. Which IDs land in the sample depends on the
// process-wide ID counter, so assert on the aggregate, not on any
// specific timeline surviving.
func TestRunSampledTrace(t *testing.T) {
	c := cfg(10, "all")
	c.sampleK = 2
	c.tracePath = filepath.Join(t.TempDir(), "sampled.json")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := obs.ValidateTrace(data)
	if err != nil {
		t.Fatalf("sampled trace invalid: %v", err)
	}
	lanes := len(obs.TimelineIDs(s.LevelDirs)) + len(obs.TimelineIDs(s.SimDirs))
	if lanes == 0 || lanes >= 10 {
		t.Errorf("sampled trace has %d timelines, want a strict nonzero subset of the 10 recorded", lanes)
	}
}

// TestRunFlightRecorder drives -flightrec: the exit-time dump must be a
// valid standalone trace holding the most recent plan timelines.
func TestRunFlightRecorder(t *testing.T) {
	c := cfg(10, "all")
	c.flightRec = filepath.Join(t.TempDir(), "flight.json")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.flightRec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := obs.ValidateTrace(data)
	if err != nil {
		t.Fatalf("flight-recorder dump invalid: %v", err)
	}
	if n := len(obs.TimelineIDs(s.SimDirs)); n == 0 || n > obs.DefaultRingKeep {
		t.Errorf("dump has %d sim timelines, want 1..%d", n, obs.DefaultRingKeep)
	}
}

// TestRunMetricsOut drives -metrics-out: the registry's flat view as a
// JSON object whose series reflect the run.
func TestRunMetricsOut(t *testing.T) {
	c := cfg(10, "cputd+gpucb")
	c.metricsOut = filepath.Join(t.TempDir(), "metrics.json")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("-metrics-out is not a JSON object: %v\n%s", err, data)
	}
	events := func(kind string) float64 {
		return m[`crossbfs_engine_events_total{engine="cputd+gpucb",kind="`+kind+`"}`]
	}
	if events("traversal_start") < 1 || events("level") == 0 || events("sim_step") == 0 {
		t.Errorf("counters don't reflect the run: %v", m)
	}
}

func TestRunSinglePlan(t *testing.T) {
	if err := run(context.Background(), cfg(9, "cputd+gpucb")); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownPlan(t *testing.T) {
	if err := run(context.Background(), cfg(8, "warpdrive")); err == nil {
		t.Error("unknown plan accepted")
	}
}

func TestRunFromGraphFile(t *testing.T) {
	g, err := rmat.Generate(rmat.DefaultParams(9, 8))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	c := cfg(0, "cpucb")
	c.graphPath = path
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadSource(t *testing.T) {
	c := cfg(8, "cpucb")
	c.source = 1 << 20
	if err := run(context.Background(), c); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestRunBadFaultSpec(t *testing.T) {
	c := cfg(8, "cpucb")
	c.faults = "meltdown:everything"
	if err := run(context.Background(), c); err == nil {
		t.Error("malformed fault spec accepted")
	}
}

func TestRunWithFaults(t *testing.T) {
	// A dead GPU must not abort the run: cross plans replan onto the
	// host, GPU-only plans report FAILED, and the command still exits
	// cleanly.
	c := cfg(10, "all")
	c.faults = "crash:KeplerK20x@1;transient:0.2"
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimeoutExpired(t *testing.T) {
	c := cfg(10, "all")
	c.timeout = time.Nanosecond
	err := run(context.Background(), c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSelectPlansNames(t *testing.T) {
	plans, err := selectPlans("all", 64, 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 9 {
		t.Errorf("%d plans in 'all', want 9", len(plans))
	}
}
