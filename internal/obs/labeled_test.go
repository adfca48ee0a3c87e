package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// allKindsFeed exercises every event kind at least once, with the
// payload fields each kind's series sums.
var allKindsFeed = []Event{
	{Kind: KindTraversalStart, Reused: true},
	{Kind: KindRootDispatch},
	{Kind: KindLevel, Dir: TopDown, FrontierVertices: 1, Discovered: 10, Grains: 1, WallDur: 3 * time.Microsecond},
	{Kind: KindSwitch, Dir: BottomUp},
	{Kind: KindLevel, Dir: BottomUp, FrontierVertices: 10, Discovered: 100, Scans: 500, Grains: 4, WallDur: 9 * time.Microsecond},
	{Kind: KindTraversalEnd},
	{Kind: KindRootDone},
	{Kind: KindTraversalStart},
	{Kind: KindTraversalEnd, Detail: "context canceled"},
	{Kind: KindPlanStart},
	{Kind: KindSimStep},
	{Kind: KindSimStep},
	{Kind: KindHandoff, Bytes: 4096},
	{Kind: KindPlanEnd, SimDur: 0.25},
	{Kind: KindRetry},
	{Kind: KindReplan},
	{Kind: KindFault},
	{Kind: KindExchangeStart, Index: 1},
	{Kind: KindExchangeEnd, Index: 1, Bytes: 512},
	{Kind: KindCollective},
	{Kind: KindGhostUpdate, Scans: 7, Discovered: 3},
	{Kind: KindRankLost, Index: 1},
	{Kind: KindRecoverStart},
	{Kind: KindRecoverEnd, Scans: 5},
	{Kind: KindCheckpoint, Bytes: 2048},
}

func TestRegistryRecorderAggregates(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "hybrid(64,64)").WithRanks(2)

	rr.Event(Event{Kind: KindTraversalStart, Engine: "hybrid(64,64)"})
	rr.Event(Event{Kind: KindLevel, Dir: TopDown, FrontierVertices: 10, Discovered: 9, WallDur: 500 * time.Microsecond})
	rr.Event(Event{Kind: KindLevel, Dir: BottomUp, FrontierVertices: 100, Discovered: 80, WallDur: 2 * time.Millisecond})
	rr.Event(Event{Kind: KindExchangeEnd, Index: 1, Bytes: 4096})
	rr.Event(Event{Kind: KindExchangeEnd, Index: 7, Bytes: 1 << 20}) // rank out of range: bytes dropped
	rr.Event(Event{Kind: KindFault, Detail: "counted by kind"})

	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	page := sb.String()
	for _, want := range []string{
		`crossbfs_engine_events_total{engine="hybrid(64,64)",kind="traversal_start"} 1`,
		`crossbfs_engine_events_total{engine="hybrid(64,64)",kind="level"} 2`,
		`crossbfs_engine_events_total{engine="hybrid(64,64)",kind="exchange_end"} 2`,
		`crossbfs_engine_events_total{engine="hybrid(64,64)",kind="fault"} 1`,
		`crossbfs_engine_level_seconds_count{engine="hybrid(64,64)",dir="td"} 1`,
		`crossbfs_engine_level_seconds_count{engine="hybrid(64,64)",dir="bu"} 1`,
		`crossbfs_engine_discovered_total{engine="hybrid(64,64)",dir="bu"} 80`,
		`crossbfs_engine_exchange_bytes_total{engine="hybrid(64,64)",rank="1"} 4096`,
		`crossbfs_engine_exchange_bytes_total{engine="hybrid(64,64)",rank="0"} 0`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition misses %q:\n%s", want, page)
		}
	}
	if _, err := ValidateExposition(strings.NewReader(page)); err != nil {
		t.Errorf("labeled exposition fails validation: %v", err)
	}
}

// TestMetricsSnapshot feeds every event kind through the recorder and
// reads the flat view: each kind is counted under its own events_total
// cell, and each kind's payload lands in its series.
func TestMetricsSnapshot(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "e").WithRanks(2)
	for _, e := range allKindsFeed {
		rr.Event(e)
	}
	s := reg.Snapshot()

	want := map[Kind]float64{}
	for _, e := range allKindsFeed {
		want[e.Kind]++
	}
	if Kind(numKinds).String() != "unknown" || Kind(numKinds-1).String() == "unknown" {
		t.Fatalf("numKinds = %d does not count the event kinds", numKinds)
	}
	for k := Kind(0); int(k) < numKinds; k++ {
		if want[k] == 0 {
			t.Errorf("allKindsFeed never emits %v", k)
		}
		key := fmt.Sprintf(`crossbfs_engine_events_total{engine="e",kind=%q}`, k.String())
		if s[key] != want[k] {
			t.Errorf("%s = %v, want %v", key, s[key], want[k])
		}
	}
	for key, v := range map[string]float64{
		`crossbfs_engine_workspace_reuses_total{engine="e"}`:                    1,
		`crossbfs_engine_traversal_errors_total{engine="e"}`:                    1,
		`crossbfs_engine_discovered_total{engine="e",dir="td"}`:                 10,
		`crossbfs_engine_discovered_total{engine="e",dir="bu"}`:                 100,
		`crossbfs_engine_bottomup_scans_total{engine="e"}`:                      500,
		`crossbfs_engine_grains_total{engine="e"}`:                              5,
		`crossbfs_engine_plan_sim_seconds_total{engine="e"}`:                    0.25,
		`crossbfs_engine_handoff_bytes_total{engine="e"}`:                       4096,
		`crossbfs_engine_exchange_bytes_total{engine="e",rank="1"}`:             512,
		`crossbfs_engine_ghost_applied_total{engine="e"}`:                       3,
		`crossbfs_engine_checkpoint_bytes_total{engine="e"}`:                    2048,
		`crossbfs_engine_level_seconds_count{engine="e",dir="td"}`:              1,
		`crossbfs_engine_level_seconds_count{engine="e",dir="bu"}`:              1,
		`crossbfs_engine_frontier_vertices_bucket{engine="e",dir="td",le="1"}`:  1,
		`crossbfs_engine_frontier_vertices_bucket{engine="e",dir="bu",le="8"}`:  0,
		`crossbfs_engine_frontier_vertices_bucket{engine="e",dir="bu",le="16"}`: 1,
	} {
		if got, ok := s[key]; !ok || got != v {
			t.Errorf("snapshot[%s] = %v (present %v), want %v", key, got, ok, v)
		}
	}
}

// TestRegistryRecorderSharesCells pins the interning contract: two
// recorders for the same engine share cells, so a multi-graph server
// with a repeated engine aggregates rather than clobbering.
func TestRegistryRecorderSharesCells(t *testing.T) {
	reg := NewRegistry()
	a := NewRegistryRecorder(reg, "serial")
	b := NewRegistryRecorder(reg, "serial")
	a.Event(Event{Kind: KindTraversalStart})
	b.Event(Event{Kind: KindTraversalStart})
	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	if !strings.Contains(sb.String(), `crossbfs_engine_events_total{engine="serial",kind="traversal_start"} 2`) {
		t.Errorf("recorders did not share the cell:\n%s", sb.String())
	}
}

// TestRegistryRecorderAllocs is the hot-path contract: once its first
// event has interned each label tuple (AllocsPerRun's warm-up run feeds
// every kind), Event performs only atomic operations on every kind —
// 0 allocs/op, same as Nop.
func TestRegistryRecorderAllocs(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "hybrid(64,64)").WithRanks(4)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, e := range allKindsFeed {
			rr.Event(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("RegistryRecorder.Event allocates %v per run, want 0", allocs)
	}
}

// TestRegistryRecorderShowsOnlyFedSeries: kind and direction series
// appear once an event feeds them. A recorder fed the point kernel's
// shape (traversal start, one top-down level, traversal end) puts
// three events_total series and no bottom-up series on the page.
func TestRegistryRecorderShowsOnlyFedSeries(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "bidirectional")
	rr.Event(Event{Kind: KindTraversalStart})
	rr.Event(Event{Kind: KindLevel, Dir: TopDown, FrontierVertices: 1, Discovered: 4, WallDur: time.Microsecond})
	rr.Event(Event{Kind: KindTraversalEnd})
	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	page := sb.String()
	events := 0
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "crossbfs_engine_events_total{") {
			events++
		}
		if strings.Contains(line, `dir="bu"`) {
			t.Errorf("top-down-only recorder put a bottom-up series on the page: %s", line)
		}
	}
	if events != 3 {
		t.Errorf("%d events_total series, want 3:\n%s", events, page)
	}
	for _, want := range []string{
		`crossbfs_engine_events_total{engine="bidirectional",kind="traversal_start"} 1`,
		`crossbfs_engine_events_total{engine="bidirectional",kind="level"} 1`,
		`crossbfs_engine_events_total{engine="bidirectional",kind="traversal_end"} 1`,
		`crossbfs_engine_discovered_total{engine="bidirectional",dir="td"} 4`,
		`crossbfs_engine_level_seconds_count{engine="bidirectional",dir="td"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page misses %q:\n%s", want, page)
		}
	}
	if _, err := ValidateExposition(strings.NewReader(page)); err != nil {
		t.Errorf("page fails validation: %v", err)
	}
}

func TestMetricsConcurrentEvents(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "e")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rr.Event(Event{Kind: KindLevel, Dir: TopDown, FrontierVertices: int64(i), Discovered: 1})
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	for _, key := range []string{
		`crossbfs_engine_events_total{engine="e",kind="level"}`,
		`crossbfs_engine_level_seconds_count{engine="e",dir="td"}`,
		`crossbfs_engine_discovered_total{engine="e",dir="td"}`,
	} {
		if s[key] != workers*per {
			t.Errorf("%s = %v, want %d", key, s[key], workers*per)
		}
	}
}

// TestMetricsScrapeWhileRecording is the race-mode gate for the pull
// paths: HTTP scrapes of the exposition page, expvar reads of the flat
// view, and direct snapshots all run concurrently with a storm of
// recording goroutines.
func TestMetricsScrapeWhileRecording(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "e")
	srv := httptest.NewServer(reg)
	defer srv.Close()
	// expvar.Publish panics on duplicate names; a unique per-test name
	// keeps repeated -count runs inside one process safe.
	name := fmt.Sprintf("crossbfs_scrape_test_%d", time.Now().UnixNano())
	expvar.Publish(name, expvar.Func(func() any { return reg.Snapshot() }))

	stop := make(chan struct{})
	var rec sync.WaitGroup
	for w := 0; w < 4; w++ {
		rec.Add(1)
		go func() {
			defer rec.Done()
			i := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				rr.Event(Event{Kind: KindTraversalStart, TraversalID: uint64(i)})
				rr.Event(Event{Kind: KindLevel, Dir: TopDown, FrontierVertices: i, Discovered: 1,
					Grains: 1, WallDur: time.Duration(i) * time.Microsecond})
				rr.Event(Event{Kind: KindTraversalEnd, TraversalID: uint64(i)})
			}
		}()
	}
	var scr sync.WaitGroup
	for s := 0; s < 4; s++ {
		scr.Add(1)
		go func() {
			defer scr.Done()
			for i := 0; i < 25; i++ {
				resp, err := srv.Client().Get(srv.URL)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("read scrape: %v", err)
					return
				}
				if _, err := ValidateExposition(strings.NewReader(string(body))); err != nil {
					t.Errorf("scrape during recording is malformed: %v", err)
					return
				}
				var vars map[string]float64
				if err := json.Unmarshal([]byte(expvar.Get(name).String()), &vars); err != nil {
					t.Errorf("expvar during recording: %v", err)
					return
				}
			}
		}()
	}
	scr.Wait()
	close(stop)
	rec.Wait()
	s := reg.Snapshot()
	if s[`crossbfs_engine_events_total{engine="e",kind="traversal_start"}`] == 0 ||
		s[`crossbfs_engine_level_seconds_count{engine="e",dir="td"}`] == 0 {
		t.Errorf("no events recorded during scrape storm: %v", s)
	}
}
