package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossbfs/internal/obs"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives([]string{
		"oltp p99 < 2ms over 5m",
		"khop p95 < 50ms over 10m",
		"error ratio < 0.1% over 30m",
	})
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives, want 3", len(objs))
	}
	if objs[0].Selector != "oltp" || objs[2].Kind != obs.ErrorRatioObjective {
		t.Errorf("objectives = %+v", objs)
	}
}

func TestParseObjectivesRejectsUnknownSelector(t *testing.T) {
	for _, spec := range []string{
		"frontend p99 < 2ms over 5m", // not a class or kind
		"oltp p99 < 2ms",             // grammar error surfaces too
	} {
		if _, err := ParseObjectives([]string{spec}); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", spec)
		}
	}
}

// TestReadyzLifecycle pins the liveness/readiness split: /healthz is
// 200 for the server's whole life, /readyz only between SetReady(true)
// and Close.
func TestReadyzLifecycle(t *testing.T) {
	s := newTestServer(t, Config{}, pathGraph(t, 8))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before arming = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz before arming = %d, want 200", got)
	}
	s.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after arming = %d, want 200", got)
	}
	s.Close()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz after Close = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz after Close = %d, want 200 (liveness outlasts drain)", got)
	}
}

// TestMetricsExpositionValid scrapes a live /metrics page and runs it
// through the exposition validator: every family must be typed and
// well-formed.
func TestMetricsExpositionValid(t *testing.T) {
	g := mustRMAT(t, 9, 8, 3)
	s := newTestServer(t, Config{}, g)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := firstSource(t, g)

	for _, body := range []string{
		fmt.Sprintf(`{"kind":"reach","source":%d,"target":%d}`, src, src),
		fmt.Sprintf(`{"kind":"khop","source":%d,"k":2}`, src),
		`{"kind":"nope","source":0}`,
	} {
		postQuery(t, ts, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	stats, err := obs.ValidateExposition(strings.NewReader(string(page)))
	if err != nil {
		t.Fatalf("/metrics failed exposition validation: %v\npage:\n%s", err, page)
	}
	if stats.Families == 0 || stats.Samples == 0 {
		t.Fatalf("validator saw nothing: %+v", stats)
	}
	for _, want := range []string{
		`crossbfs_query_latency_seconds_bucket{class="oltp",kind="reach",le="+Inf"}`,
		`crossbfs_admission_outcomes_total{reason="ok"}`,
		`crossbfs_admission_outcomes_total{reason="client_error"}`,
		`crossbfs_graph_queries_total{graph="g",kind="reach"} 1`,
		"crossbfs_flight_retained",
		"# TYPE crossbfs_query_latency_seconds histogram",
		"# TYPE crossbfs_admission_queued gauge",
		`crossbfs_engine_events_total{engine="serial",kind="traversal_start"} 1`,
		`crossbfs_engine_events_total{engine="bidirectional",kind="traversal_start"} 1`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSLOBreachCapturesIncidentBundle drives an impossible objective
// (p99 under a microsecond) against real queries, and expects exactly
// one incident bundle under the cooldown: slo.json, heap.pprof,
// cpu.pprof, flight.json.
func TestSLOBreachCapturesIncidentBundle(t *testing.T) {
	objs, err := ParseObjectives([]string{"total p99 < 1us over 2s"})
	if err != nil {
		t.Fatal(err)
	}
	incidents := make(chan string, 4)
	dir := t.TempDir()
	g := mustRMAT(t, 9, 8, 3)
	s := newTestServer(t, Config{
		Objectives:         objs,
		SLOPoll:            10 * time.Millisecond,
		SLOCooldown:        time.Hour,
		IncidentDir:        dir,
		IncidentCPUProfile: 20 * time.Millisecond,
		OnIncident: func(d string, v obs.Verdict, err error) {
			if err != nil {
				t.Errorf("incident capture: %v", err)
			}
			incidents <- d
		},
	}, g)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := firstSource(t, g)

	// Spread queries across poll ticks so the burn windows see traffic
	// deltas, until the breach hook fires.
	var captured string
	deadline := time.After(10 * time.Second)
	body := fmt.Sprintf(`{"kind":"reach","source":%d,"target":%d}`, src, src)
loop:
	for {
		postQuery(t, ts, body)
		select {
		case captured = <-incidents:
			break loop
		case <-deadline:
			t.Fatalf("no incident after 10s; verdicts: %+v", s.SLOVerdicts())
		case <-time.After(5 * time.Millisecond):
		}
	}

	for _, name := range []string{"slo.json", "heap.pprof", "cpu.pprof", "flight.json"} {
		st, err := os.Stat(filepath.Join(captured, name))
		if err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("bundle artifact %s is empty", name)
		}
	}
	var man struct {
		Breach   obs.Verdict   `json:"breach"`
		Verdicts []obs.Verdict `json:"verdicts"`
	}
	raw, err := os.ReadFile(filepath.Join(captured, "slo.json"))
	if err != nil {
		t.Fatalf("slo.json: %v", err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("slo.json does not parse: %v", err)
	}
	if !man.Breach.Breaching || man.Breach.Objective != "total p99 < 1us over 2s" {
		t.Errorf("manifest breach = %+v", man.Breach)
	}

	// The hour-long cooldown means exactly one bundle no matter how long
	// the breach persists.
	time.Sleep(50 * time.Millisecond)
	select {
	case extra := <-incidents:
		t.Fatalf("second incident %s under cooldown", extra)
	default:
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("incident dir holds %d entries, want 1: %v", len(entries), entries)
	}

	// /debug/slo reports the breach and points at the bundle.
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Objectives      []obs.Verdict `json:"objectives"`
		Incidents       int64         `json:"incidents"`
		LastIncidentDir string        `json:"last_incident_dir"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("/debug/slo: %v", err)
	}
	if len(page.Objectives) != 1 || page.Incidents != 1 || page.LastIncidentDir != captured {
		t.Errorf("/debug/slo = %+v, want 1 objective, 1 incident at %s", page, captured)
	}
}

// TestSLOWithoutObjectivesIsQuiet pins the zero-config path: no
// goroutine, empty /debug/slo, clean Close.
func TestSLOWithoutObjectivesIsQuiet(t *testing.T) {
	s := newTestServer(t, Config{}, pathGraph(t, 8))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if v := s.SLOVerdicts(); len(v) != 0 {
		t.Errorf("verdicts without objectives: %+v", v)
	}
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Objectives []obs.Verdict `json:"objectives"`
		Incidents  int64         `json:"incidents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Objectives) != 0 || page.Incidents != 0 {
		t.Errorf("/debug/slo = %+v, want empty", page)
	}
	s.Close()
}
