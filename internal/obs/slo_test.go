package obs

import (
	"math"
	"testing"
	"time"
)

func TestParseObjective(t *testing.T) {
	cases := []struct {
		spec     string
		selector string
		kind     ObjectiveKind
		quantile float64
		thresh   float64
		window   time.Duration
	}{
		{"oltp p99 < 2ms over 5m", "oltp", LatencyObjective, 0.99, 0.002, 5 * time.Minute},
		{"reach p999 < 500us over 1h", "reach", LatencyObjective, 0.999, 0.0005, time.Hour},
		{"total p50 < 1s over 30s", "total", LatencyObjective, 0.5, 1, 30 * time.Second},
		{"error ratio < 0.1% over 30m", "error", ErrorRatioObjective, 0, 0.001, 30 * time.Minute},
		{"error ratio < 5% over 1m", "error", ErrorRatioObjective, 0, 0.05, time.Minute},
	}
	for _, tc := range cases {
		o, err := ParseObjective(tc.spec)
		if err != nil {
			t.Errorf("ParseObjective(%q): %v", tc.spec, err)
			continue
		}
		if o.Selector != tc.selector || o.Kind != tc.kind || o.Window != tc.window {
			t.Errorf("ParseObjective(%q) = %+v", tc.spec, o)
		}
		if math.Abs(o.Threshold-tc.thresh) > 1e-12 {
			t.Errorf("ParseObjective(%q) threshold = %v, want %v", tc.spec, o.Threshold, tc.thresh)
		}
		if tc.kind == LatencyObjective && math.Abs(o.Quantile-tc.quantile) > 1e-12 {
			t.Errorf("ParseObjective(%q) quantile = %v, want %v", tc.spec, o.Quantile, tc.quantile)
		}
	}
}

func TestParseObjectiveRejects(t *testing.T) {
	for _, spec := range []string{
		"",
		"p99 < 2ms over 5m",
		"oltp p99 2ms over 5m",
		"oltp p99 < 2ms 5m",
		"oltp q99 < 2ms over 5m",
		"oltp p0 < 2ms over 5m",
		"oltp p99 < fast over 5m",
		"oltp p99 < 2ms over never",
		"oltp p99 < 2ms over -5m",
		"error ratio < 0.1 over 30m",
		"error ratio < 110% over 30m",
		"error ratio < NaN% over 5m",
		"error ratio < nan% over 5m",
		"error ratio < 1e-323% over 5m",
		"error budget < 1% over 30m",
	} {
		if _, err := ParseObjective(spec); err == nil {
			t.Errorf("ParseObjective(%q) accepted", spec)
		}
	}
}

// FuzzParseObjective: whatever ParseObjective accepts can be
// evaluated. It has a selector and a positive window, a finite
// positive threshold, and an error budget strictly inside (0, 1), so a
// burn rate divides by a real budget.
func FuzzParseObjective(f *testing.F) {
	for _, spec := range []string{
		"oltp p99 < 2ms over 5m",
		"reach p999 < 500us over 1h",
		"total p50 < 1s over 30s",
		"error ratio < 0.1% over 30m",
		"error ratio < NaN% over 5m",
		"error ratio < 1e-300% over 5m",
		"oltp p0001 < 1ns over 1ns",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseObjective(spec)
		if err != nil {
			return
		}
		if o.Selector == "" || o.Window <= 0 {
			t.Fatalf("ParseObjective(%q) = %+v: empty selector or non-positive window", spec, o)
		}
		if math.IsInf(o.Threshold, 0) || !(o.Threshold > 0) {
			t.Fatalf("ParseObjective(%q) threshold = %v, want finite and > 0", spec, o.Threshold)
		}
		if b := o.Budget(); !(b > 0 && b < 1) {
			t.Fatalf("ParseObjective(%q) budget = %v, want in (0, 1)", spec, b)
		}
	})
}

func TestObjectiveBudget(t *testing.T) {
	o, _ := ParseObjective("oltp p99 < 2ms over 5m")
	if b := o.Budget(); math.Abs(b-0.01) > 1e-12 {
		t.Errorf("p99 budget = %v, want 0.01", b)
	}
	e, _ := ParseObjective("error ratio < 0.1% over 30m")
	if b := e.Budget(); math.Abs(b-0.001) > 1e-12 {
		t.Errorf("error budget = %v, want 0.001", b)
	}
}

// fakeSource is a settable cumulative counter pair.
type fakeSource struct{ total, bad float64 }

func (f *fakeSource) src() SLOSource {
	return func() (float64, float64) { return f.total, f.bad }
}

func sloFixture(t *testing.T, opt SLOOptions) (*SLO, *fakeSource) {
	t.Helper()
	o, err := ParseObjective("oltp p99 < 2ms over 60s")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeSource{}
	return NewSLO([]SLOObjective{{Objective: o, Source: fs.src()}}, opt), fs
}

func TestSLOBurnAndBreach(t *testing.T) {
	var fired []Verdict
	s, fs := sloFixture(t, SLOOptions{
		Cooldown: time.Hour,
		OnBreach: func(v Verdict) { fired = append(fired, v) },
	})
	t0 := time.Unix(1000, 0)

	// Healthy traffic: 1000 requests per tick, 1 bad (0.1% << 1% budget).
	now := t0
	for i := 0; i < 13; i++ {
		fs.total += 1000
		fs.bad += 1
		vs := s.Tick(now)
		if vs[0].Breaching {
			t.Fatalf("tick %d: breaching on healthy traffic: %+v", i, vs[0])
		}
		now = now.Add(5 * time.Second)
	}
	healthy := s.Verdicts()[0]
	if healthy.BurnLong <= 0 || healthy.BurnLong >= 1 {
		t.Errorf("healthy burn = %v, want in (0,1)", healthy.BurnLong)
	}

	// Regression: 5% of traffic goes bad — burn 5x the budget.
	for i := 0; i < 13; i++ {
		fs.total += 1000
		fs.bad += 50
		s.Tick(now)
		now = now.Add(5 * time.Second)
	}
	v := s.Verdicts()[0]
	if !v.Breaching {
		t.Fatalf("not breaching after sustained 5%% bad: %+v", v)
	}
	if v.BurnLong < 2 || v.BurnShort < 2 {
		t.Errorf("burns = (%v, %v), want both well above 1", v.BurnLong, v.BurnShort)
	}
	if len(fired) != 1 {
		t.Fatalf("OnBreach fired %d times under one cooldown, want exactly 1", len(fired))
	}
	if fired[0].Objective != "oltp p99 < 2ms over 60s" {
		t.Errorf("verdict objective = %q", fired[0].Objective)
	}
	if s.breaches != 1 {
		t.Errorf("breaches = %d, want 1", s.breaches)
	}
}

// TestSLOShortWindowVetoes pins the multi-window rule: an old burst
// inside the long window but outside the short one must not breach —
// the incident already ended.
func TestSLOShortWindowVetoes(t *testing.T) {
	s, fs := sloFixture(t, SLOOptions{Cooldown: time.Hour})
	now := time.Unix(1000, 0)

	// A bad burst: 50% bad for 15s.
	for i := 0; i < 3; i++ {
		fs.total += 1000
		fs.bad += 500
		s.Tick(now)
		now = now.Add(5 * time.Second)
	}
	// Recovery: clean traffic for 30s. The long (60s) window still
	// holds the burst; the short (5s) window is clean.
	var last []Verdict
	for i := 0; i < 6; i++ {
		fs.total += 1000
		last = s.Tick(now)
		now = now.Add(5 * time.Second)
	}
	v := last[0]
	if v.BurnLong < 1 {
		t.Fatalf("long burn = %v, expected the burst still in window", v.BurnLong)
	}
	if v.BurnShort >= 1 {
		t.Fatalf("short burn = %v, expected clean recent traffic", v.BurnShort)
	}
	if v.Breaching {
		t.Error("breaching although the burst already ended")
	}
}

func TestSLOCooldownSpacesBreaches(t *testing.T) {
	var fired int
	s, fs := sloFixture(t, SLOOptions{
		Cooldown: 30 * time.Second,
		OnBreach: func(Verdict) { fired++ },
	})
	now := time.Unix(1000, 0)
	// Permanently breaching traffic.
	for i := 0; i < 20; i++ {
		fs.total += 1000
		fs.bad += 500
		s.Tick(now)
		now = now.Add(5 * time.Second)
	}
	// 20 ticks over 95s with a 30s cooldown: first breach plus at most
	// three more re-arms.
	if fired < 2 || fired > 4 {
		t.Errorf("OnBreach fired %d times over 95s with 30s cooldown, want 2..4", fired)
	}
}

func TestSLONoTrafficNoBurn(t *testing.T) {
	s, _ := sloFixture(t, SLOOptions{})
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		vs := s.Tick(now)
		if vs[0].BurnLong != 0 || vs[0].BurnShort != 0 || vs[0].Breaching {
			t.Fatalf("idle verdict not quiet: %+v", vs[0])
		}
		now = now.Add(5 * time.Second)
	}
}

func TestLatencySourceConservative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("crossbfs_query_latency_seconds", "Latency.", LatencyBuckets(), LabelClass)
	c := h.With("oltp")
	// 2ms is exactly the 2048µs bound times 1000/1024 — not a bound.
	// Observations in (1024µs, 2048µs] count bad under a 2ms objective
	// even though some are under 2ms: conservative by one bucket.
	c.Observe(500e-6)  // good
	c.Observe(1500e-6) // bucket (1024µs,2048µs]: counted bad
	c.Observe(5e-3)    // bad outright
	src := LatencySource(2e-3, c)
	total, bad := src()
	if total != 3 || bad != 2 {
		t.Errorf("LatencySource = (%v,%v), want (3,2)", total, bad)
	}
}
