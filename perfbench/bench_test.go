package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"crossbfs/internal/obs"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, unsorted order
	}
	p99, err := percentile(xs, 99)
	if err != nil || p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %g, %v; want 990", p99, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples must be refused")
	}
	if _, err := percentile(xs[:200], 95); err != nil {
		t.Errorf("p95 of 200 samples: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
	for _, p := range []float64{50, 95, 99} {
		n := samplesFor(p)
		if _, err := percentile(xs[:n], p); err != nil {
			t.Errorf("samplesFor(%g) = %d is refused: %v", p, n, err)
		}
		if _, err := percentile(xs[:n-1], p); err == nil {
			t.Errorf("samplesFor(%g) = %d is not the minimum", p, n)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 120, 6000)
	if b := poissonSchedule(7, 120, 6000); !slices.Equal(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(8, 120, 6000); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) {
		t.Fatal("due times go backwards")
	}
	// 6000 arrivals at 120/s span about 50s (the sd of the sum is ~0.65s).
	if span := a[len(a)-1].Seconds(); math.Abs(span-50) > 3 {
		t.Errorf("6000 arrivals at 120/s span %.1fs, want about 50s", span)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	// Four requests all due at once on one connection: each waits for
	// the ones before it, and its latency includes that wait.
	const service = 20 * time.Millisecond
	got := openLoop(time.Now(), make([]time.Duration, 4), 1, func(conn, i int) error {
		time.Sleep(service)
		return nil
	})
	for i, s := range got {
		if s.lag() < time.Duration(i)*service {
			t.Errorf("request %d left %v after it was due, want at least %v", i, s.lag(), time.Duration(i)*service)
		}
		if s.latency() < time.Duration(i+1)*service {
			t.Errorf("request %d latency %v, want at least %v", i, s.latency(), time.Duration(i+1)*service)
		}
		if s.latency() < s.done-s.sent {
			t.Errorf("request %d latency %v is shorter than its round trip", i, s.latency())
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	span := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"unsorted and touching", []interval{{50, 70}, {10, 50}}, 40},
		{"clipped to the span", []interval{{-20, 10}, {90, 130}}, 80},
		{"outside the span", []interval{{120, 130}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestHarmonicMTEPS(t *testing.T) {
	// 2e6 directed entries are 1e6 Graph 500 edges: 1e6 TEPS in 1s and
	// 0.5e6 TEPS in 2s; their harmonic mean is 2/(1/1e6+1/0.5e6).
	got := harmonicMTEPS([]int64{2e6, 2e6}, []float64{1, 2})
	if want := 2 / (1/1.0 + 1/0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("harmonic MTEPS %g, want %g", got, want)
	}
}

func TestRefusedReadsAdmissionOutcomes(t *testing.T) {
	page := `# HELP crossbfs_admission_outcomes_total Completed requests by admission outcome.
# TYPE crossbfs_admission_outcomes_total counter
crossbfs_admission_outcomes_total{reason="ok"} 100
crossbfs_admission_outcomes_total{reason="queue_full"} 3
crossbfs_admission_outcomes_total{reason="deadline"} 2
`
	fams, err := obs.ParseExposition(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := refused(fams); err != nil || n != 5 {
		t.Errorf("refused = %g, %v; want 5", n, err)
	}
	fams, err = obs.ParseExposition(strings.NewReader("crossbfs_requests_total 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refused(fams); err == nil {
		t.Error("a page without the admission outcomes must be refused")
	}
}
