package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
)

// mustRMAT generates the small R-MAT graph most tests serve.
func mustRMAT(t testing.TB, scale, ef int, seed uint64) *graph.CSR {
	t.Helper()
	p := rmat.DefaultParams(scale, ef)
	p.Seed = seed
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatalf("rmat.Generate: %v", err)
	}
	return g
}

// pathGraph returns 0-1-2-...-(n-1), symmetrized.
func pathGraph(t *testing.T, n int) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32(i + 1)})
	}
	g, err := graph.Build(n, edges, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// newTestServer builds a server holding one graph named "g".
func newTestServer(t testing.TB, cfg Config, g *graph.CSR) *Server {
	t.Helper()
	s := NewServer(cfg)
	if err := s.AddGraph("g", "test", g); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	return s
}

// blockingEngine parks every traversal until released (or the context
// expires) — the deterministic way to fill the admission gate and to
// force deadline expiry in tests.
type blockingEngine struct {
	release chan struct{}
	entered chan struct{} // one token per traversal that reached run
}

func newBlockingEngine() *blockingEngine {
	return &blockingEngine{release: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (e *blockingEngine) Name() string { return "blocking" }

func (e *blockingEngine) Run(g *graph.CSR, source int32, ws *bfs.Workspace) (*bfs.Result, error) {
	return e.RunObserved(context.Background(), g, source, ws, nil)
}

// RunObserved blocks until released or cancelled. It drops rec: the
// released traversal runs unobserved.
func (e *blockingEngine) RunObserved(ctx context.Context, g *graph.CSR, source int32, ws *bfs.Workspace, _ obs.Recorder) (*bfs.Result, error) {
	select {
	case e.entered <- struct{}{}:
	default:
	}
	select {
	case <-e.release:
		return bfs.SerialEngine().RunObserved(ctx, g, source, ws, nil)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// setEngine swaps the planned engine of a registered graph — tests
// use it to make timing-dependent paths deterministic.
func setEngine(t *testing.T, s *Server, name string, e bfs.Engine) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	sg, ok := s.graphs[name]
	if !ok {
		t.Fatalf("setEngine: no graph %q", name)
	}
	sg.engine = e
	sg.info.Engine = e.Name()
}

func TestQueryValidation(t *testing.T) {
	g := pathGraph(t, 64)
	s := newTestServer(t, Config{}, g)
	defer s.Close()

	cases := []struct {
		name string
		q    Query
		code string
	}{
		{"no kind", Query{Source: 1}, "bad_request"},
		{"unknown kind", Query{Kind: "explode", Source: 1}, "bad_request"},
		{"unknown graph", Query{Graph: "nope", Kind: KindReach, Source: 1, Target: 2}, "unknown_graph"},
		{"source out of range", Query{Kind: KindReach, Source: 64, Target: 2}, "bad_request"},
		{"negative source", Query{Kind: KindReach, Source: -1, Target: 2}, "bad_request"},
		{"target out of range", Query{Kind: KindPath, Source: 1, Target: 1 << 20}, "bad_request"},
		{"negative k", Query{Kind: KindKHop, Source: 1, K: -2}, "bad_request"},
		{"multi no sources", Query{Kind: KindMulti}, "bad_request"},
		{"multi too many sources", Query{Kind: KindMulti, Sources: make([]int32, maxMultiSources+1)}, "bad_request"},
		{"multi bad source", Query{Kind: KindMulti, Sources: []int32{1, 99}, DeadlineMS: 100}, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := s.Query(context.Background(), tc.q)
			if serr == nil {
				t.Fatalf("Query(%+v) succeeded, want %s", tc.q, tc.code)
			}
			if serr.Code != tc.code {
				t.Errorf("code = %q, want %q (%v)", serr.Code, tc.code, serr)
			}
			if serr.Status < 400 || serr.Status >= 500 {
				t.Errorf("status = %d, want 4xx", serr.Status)
			}
		})
	}
}

// firstSource returns the first non-isolated vertex (the bfsrun
// source-picking rule) — R-MAT graphs routinely leave vertex 0 with no
// edges.
func firstSource(t testing.TB, g *graph.CSR) int32 {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	t.Fatal("graph has no edges")
	return 0
}

func TestQueryKindsMatchSerial(t *testing.T) {
	g := mustRMAT(t, 10, 8, 7)
	s := newTestServer(t, Config{}, g)
	defer s.Close()
	src := firstSource(t, g)
	ref, err := bfs.SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatalf("Serial: %v", err)
	}

	t.Run("reach", func(t *testing.T) {
		for _, target := range []int32{0, src, int32(g.NumVertices() - 1)} {
			resp, serr := s.Query(context.Background(), Query{Kind: KindReach, Source: src, Target: target})
			if serr != nil {
				t.Fatalf("reach(%d,%d): %v", src, target, serr)
			}
			wantReach := ref.Level[target] != bfs.NotVisited
			if *resp.Reachable != wantReach || resp.Distance != ref.Level[target] {
				t.Errorf("reach(%d,%d) = (%v,%d), serial says (%v,%d)",
					src, target, *resp.Reachable, resp.Distance, wantReach, ref.Level[target])
			}
		}
	})

	t.Run("path", func(t *testing.T) {
		// Find a reachable target a few hops out.
		var target int32 = -1
		for v, l := range ref.Level {
			if l >= 2 {
				target = int32(v)
				break
			}
		}
		if target < 0 {
			t.Skip("graph has no vertex at depth >= 2")
		}
		resp, serr := s.Query(context.Background(), Query{Kind: KindPath, Source: src, Target: target})
		if serr != nil {
			t.Fatalf("path: %v", serr)
		}
		if int32(len(resp.Path)-1) != ref.Level[target] {
			t.Fatalf("path length %d hops, serial level %d", len(resp.Path)-1, ref.Level[target])
		}
		if resp.Path[0] != src || resp.Path[len(resp.Path)-1] != target {
			t.Fatalf("path endpoints %d..%d, want %d..%d", resp.Path[0], resp.Path[len(resp.Path)-1], src, target)
		}
		// Every step must be a real edge with levels ascending by one.
		for i := 1; i < len(resp.Path); i++ {
			u, v := resp.Path[i-1], resp.Path[i]
			if !g.HasEdge(u, v) {
				t.Errorf("path step %d: no edge %d-%d", i, u, v)
			}
			if ref.Level[v] != ref.Level[u]+1 {
				t.Errorf("path step %d: level[%d]=%d, level[%d]=%d", i, u, ref.Level[u], v, ref.Level[v])
			}
		}
	})

	t.Run("khop", func(t *testing.T) {
		const k = 3
		resp, serr := s.Query(context.Background(), Query{Kind: KindKHop, Source: src, K: k})
		if serr != nil {
			t.Fatalf("khop: %v", serr)
		}
		want := make([]int64, k+1)
		var within int64
		for _, l := range ref.Level {
			if l >= 0 && l <= k {
				want[l]++
				within++
			}
		}
		if resp.WithinK != within {
			t.Errorf("within_k = %d, serial says %d", resp.WithinK, within)
		}
		if len(resp.LevelCounts) != len(want) {
			t.Fatalf("level_counts has %d entries, want %d", len(resp.LevelCounts), len(want))
		}
		for i := range want {
			if resp.LevelCounts[i] != want[i] {
				t.Errorf("level_counts[%d] = %d, serial says %d", i, resp.LevelCounts[i], want[i])
			}
		}
	})

	t.Run("multi", func(t *testing.T) {
		sources := []int32{src, 0, src + 1, int32(g.NumVertices() - 1)}
		resp, serr := s.Query(context.Background(), Query{Kind: KindMulti, Sources: sources})
		if serr != nil {
			t.Fatalf("multi: %v", serr)
		}
		if len(resp.Results) != len(sources) {
			t.Fatalf("multi returned %d results, want %d", len(resp.Results), len(sources))
		}
		for i, src := range sources {
			sref, err := bfs.SerialEngine().Run(g, src, nil)
			if err != nil {
				t.Fatalf("Serial(%d): %v", src, err)
			}
			got := resp.Results[i]
			if got.Source != src || got.Visited != sref.VisitedCount || got.Depth != sref.Depth() {
				t.Errorf("multi[%d] = %+v, serial says visited=%d depth=%d",
					i, got, sref.VisitedCount, sref.Depth())
			}
		}
	})
}

func TestQueryDeadline(t *testing.T) {
	g := pathGraph(t, 64)
	s := newTestServer(t, Config{DefaultDeadline: 20 * time.Millisecond}, g)
	defer s.Close()
	be := newBlockingEngine()
	defer close(be.release)
	setEngine(t, s, "g", be)

	_, serr := s.Query(context.Background(), Query{Kind: KindKHop, Source: 0})
	if serr == nil {
		t.Fatal("query against a parked engine succeeded")
	}
	if serr.Status != 504 || serr.Code != "deadline" {
		t.Fatalf("got status %d code %q, want 504 deadline (%v)", serr.Status, serr.Code, serr)
	}
	if !errors.Is(serr, context.DeadlineExceeded) {
		t.Errorf("error does not unwrap to context.DeadlineExceeded: %v", serr)
	}
}

func TestQueryQueueFull(t *testing.T) {
	g := pathGraph(t, 64)
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1, DefaultDeadline: 5 * time.Second}, g)
	be := newBlockingEngine()
	setEngine(t, s, "g", be)

	// Park one query in the single slot.
	firstDone := make(chan *Error, 1)
	go func() {
		_, serr := s.Query(context.Background(), Query{Kind: KindKHop, Source: 0})
		firstDone <- serr
	}()
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first query never reached the engine")
	}

	// With zero queue depth the next query must be rejected immediately.
	_, serr := s.Query(context.Background(), Query{Kind: KindReach, Source: 0, Target: 1})
	if serr == nil {
		t.Fatal("second query was admitted past a full gate")
	}
	if serr.Status != 429 || serr.Code != "queue_full" {
		t.Fatalf("got status %d code %q, want 429 queue_full", serr.Status, serr.Code)
	}

	close(be.release)
	if serr := <-firstDone; serr != nil {
		t.Fatalf("parked query failed after release: %v", serr)
	}
	s.Close()
}

func TestQueuedRequestTimesOut(t *testing.T) {
	g := pathGraph(t, 64)
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 4, DefaultDeadline: 30 * time.Millisecond}, g)
	be := newBlockingEngine()
	setEngine(t, s, "g", be)

	hold := make(chan *Error, 1)
	go func() {
		_, serr := s.Query(context.Background(), Query{Kind: KindKHop, Source: 0, DeadlineMS: 5000})
		hold <- serr
	}()
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("holder never reached the engine")
	}

	// This one fits in the queue but its deadline expires while waiting:
	// the admission gate must convert that into the same 504.
	_, serr := s.Query(context.Background(), Query{Kind: KindReach, Source: 0, Target: 1})
	if serr == nil || serr.Status != 504 {
		t.Fatalf("queued query got %v, want 504", serr)
	}

	close(be.release)
	if serr := <-hold; serr != nil {
		t.Fatalf("holder failed: %v", serr)
	}
	s.Close()
}

func TestServerCloseRejectsAndDrains(t *testing.T) {
	g := pathGraph(t, 64)
	s := newTestServer(t, Config{}, g)
	s.Close()
	_, serr := s.Query(context.Background(), Query{Kind: KindReach, Source: 0, Target: 1})
	if serr == nil || serr.Status != 503 || serr.Code != "shutting_down" {
		t.Fatalf("query after Close got %v, want 503 shutting_down", serr)
	}
	// Close is idempotent.
	s.Close()
}

func TestLookupDefaultGraph(t *testing.T) {
	g := pathGraph(t, 64)
	s := NewServer(Config{})
	defer s.Close()
	if err := s.AddGraph("a", "", g); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	// One graph: empty name resolves to it.
	if resp, serr := s.Query(context.Background(), Query{Kind: KindReach, Source: 0, Target: 3}); serr != nil {
		t.Fatalf("unnamed query with one graph: %v", serr)
	} else if resp.Graph != "a" {
		t.Fatalf("resolved graph %q, want %q", resp.Graph, "a")
	}
	// Two graphs: empty name is ambiguous.
	if err := s.AddGraph("b", "", g); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	if _, serr := s.Query(context.Background(), Query{Kind: KindReach, Source: 0, Target: 3}); serr == nil || serr.Code != "bad_request" {
		t.Fatalf("unnamed query with two graphs got %v, want bad_request", serr)
	}
}

func TestAddGraphRejects(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if err := s.AddGraph("", "", pathGraph(t, 8)); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.AddGraph("g", "", nil); err == nil {
		t.Error("nil graph accepted")
	}
	if err := s.AddGraph("g", "", pathGraph(t, 8)); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	if err := s.AddGraph("g", "", pathGraph(t, 8)); err == nil {
		t.Error("duplicate name accepted")
	}
}

func planName(g *graph.CSR) string { return planEngine(g).Name() }

func TestPlanEngineCutoffs(t *testing.T) {
	if name := planName(pathGraph(t, 100)); name != "serial" {
		t.Errorf("small graph planned %q, want serial", name)
	}
	big := mustRMAT(t, 11, 4, 1) // 2048 vertices: still below serialCutoff
	if name := planName(big); name != "serial" {
		t.Errorf("scale-11 planned %q, want serial", name)
	}
	mid := mustRMAT(t, 13, 4, 1) // 8192: hybrid territory
	if name := planName(mid); name == "serial" {
		t.Errorf("scale-13 planned serial, want a parallel kernel")
	}
	huge := mustRMAT(t, 16, 4, 1)
	if name := planName(huge); name != "hybrid(64,64)" {
		t.Errorf("scale-16 planned %q, want hybrid(64,64)", name)
	}
}

// TestQueryEngineSplit pins which kernel answers each kind: reach and
// path run the point search and report "bidirectional", khop and
// multi run the planned engine, and the point answers still match the
// serial reference.
func TestQueryEngineSplit(t *testing.T) {
	g := mustRMAT(t, 16, 4, 1)
	s := newTestServer(t, Config{}, g)
	defer s.Close()
	planned := s.Graphs()[0].Engine
	if planned != "hybrid(64,64)" {
		t.Fatalf("planned engine %q, want hybrid(64,64)", planned)
	}
	src := firstSource(t, g)
	ref, err := bfs.SerialEngine().Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := int32(g.NumVertices() - 1)
	for _, c := range []struct {
		q      Query
		engine string
	}{
		{Query{Kind: KindReach, Source: src, Target: target}, bfs.PointQueryEngine},
		{Query{Kind: KindPath, Source: src, Target: target}, bfs.PointQueryEngine},
		{Query{Kind: KindKHop, Source: src, K: 1}, planned},
		{Query{Kind: KindMulti, Sources: []int32{src}}, planned},
	} {
		resp, serr := s.Query(context.Background(), c.q)
		if serr != nil {
			t.Fatalf("%s: %v", c.q.Kind, serr)
		}
		if resp.Engine != c.engine {
			t.Errorf("%s answered by %q, want %q", c.q.Kind, resp.Engine, c.engine)
		}
		if c.engine == bfs.PointQueryEngine && resp.Distance != ref.Level[target] {
			t.Errorf("%s(%d,%d) distance %d, serial level %d", c.q.Kind, src, target, resp.Distance, ref.Level[target])
		}
	}
}

func TestFlightRecorderRetainsSampledQueries(t *testing.T) {
	g := mustRMAT(t, 9, 8, 3)
	// SampleK 1 keeps every traversal, so the ring must retain the
	// most recent queries and the dump must carry their IDs.
	s := newTestServer(t, Config{SampleK: 1}, g)
	defer s.Close()
	var ids []uint64
	for i := 0; i < 5; i++ {
		resp, serr := s.Query(context.Background(), Query{Kind: KindReach, Source: 0, Target: int32(i)})
		if serr != nil {
			t.Fatalf("query %d: %v", i, serr)
		}
		if resp.TraversalID == 0 {
			t.Fatalf("query %d reported no traversal_id", i)
		}
		ids = append(ids, resp.TraversalID)
	}
	stats := s.ring.Stats()
	if stats.Retained != 5 {
		t.Fatalf("ring retained %d traversals, want 5", stats.Retained)
	}
	seen, kept := s.SamplerStats()
	if seen != kept || kept < 5 {
		t.Fatalf("sampler seen=%d kept=%d, want everything kept", seen, kept)
	}
	// The retained groups carry exactly the reported IDs.
	got := map[uint64]bool{}
	s.ring.DumpTo(recorderFunc(func(e obs.Event) {
		if e.TraversalID != 0 {
			got[e.TraversalID] = true
		}
	}))
	for _, id := range ids {
		if !got[id] {
			t.Errorf("traversal %d missing from the flight dump", id)
		}
	}
}

// TestOneTraversalIDPerQuery pins one traversal-ID draw per query:
// the server draws the query's ID and the traversal it runs takes that
// ID from the wrapper instead of drawing its own, so a query between
// two draws of the test's own lands exactly between them.
func TestOneTraversalIDPerQuery(t *testing.T) {
	g := mustRMAT(t, 9, 8, 3)
	s := newTestServer(t, Config{SampleK: 1}, g)
	defer s.Close()
	for _, q := range []Query{
		{Kind: KindReach, Source: 0, Target: 5},
		{Kind: KindPath, Source: 0, Target: 9},
		{Kind: KindKHop, Source: 0, K: 2},
	} {
		before := obs.NextTraversalID()
		resp, serr := s.Query(context.Background(), q)
		if serr != nil {
			t.Fatalf("%s: %v", q.Kind, serr)
		}
		after := obs.NextTraversalID()
		if resp.TraversalID != before+1 || after != before+2 {
			t.Errorf("%s: traversal_id %d between draws %d and %d, want one draw per query",
				q.Kind, resp.TraversalID, before, after)
		}
	}
}

// recorderFunc adapts a closure to obs.Recorder.
type recorderFunc func(obs.Event)

func (f recorderFunc) Event(e obs.Event) { f(e) }

// TestMetricsCountTraversals drives a fixed mix of outcomes through
// Server.Query and reads the answers back from the one metrics
// pipeline: the admission outcomes sum to the requests sent, reason by
// reason; traversal_start counts one traversal per reach and one per
// multi source; and /metrics.json repeats the page's value for every
// series.
func TestMetricsCountTraversals(t *testing.T) {
	g := mustRMAT(t, 9, 8, 3)
	s := newTestServer(t, Config{}, g)
	defer s.Close()
	if err := s.AddGraph("slow", "test", pathGraph(t, 64)); err != nil {
		t.Fatal(err)
	}
	be := newBlockingEngine()
	defer close(be.release)
	setEngine(t, s, "slow", be)

	src := firstSource(t, g)
	sources := []int32{src, 1, 2, 3, 4, 5, 6, 7}
	mix := []struct {
		q      Query
		status int
	}{
		{Query{Graph: "g", Kind: KindReach, Source: src, Target: 1, DeadlineMS: 10000}, 200},
		{Query{Graph: "g", Kind: KindMulti, Sources: sources, DeadlineMS: 10000}, 200},
		{Query{Graph: "g", Kind: "dfs", Source: src}, 400},
		{Query{Graph: "absent", Kind: KindReach, Source: 0, Target: 1}, 404},
		{Query{Graph: "slow", Kind: KindKHop, Source: 0, DeadlineMS: 20}, 504},
	}
	for _, m := range mix {
		status := 200
		if _, serr := s.Query(context.Background(), m.q); serr != nil {
			status = serr.Status
		}
		if status != m.status {
			t.Fatalf("%+v: status %d, want %d", m.q, status, m.status)
		}
	}

	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.Bytes()
	}
	page := get("/metrics")
	fams, err := obs.ParseExposition(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	byName := map[string]obs.ExpoFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	outcomes := map[string]float64{}
	total := 0.0
	for _, smp := range byName["crossbfs_admission_outcomes_total"].Samples {
		outcomes[smp.Labels["reason"]] = smp.Value
		total += smp.Value
	}
	if total != float64(len(mix)) {
		t.Errorf("admission outcomes sum to %v, sent %d requests", total, len(mix))
	}
	for reason, want := range map[string]float64{
		"ok": 2, "client_error": 2, "deadline": 1, "queue_full": 0, "unavailable": 0, "server_error": 0,
	} {
		if outcomes[reason] != want {
			t.Errorf("outcome %q = %v, want %v", reason, outcomes[reason], want)
		}
	}
	starts := 0.0
	for _, smp := range byName["crossbfs_engine_events_total"].Samples {
		if smp.Labels["kind"] == "traversal_start" {
			starts += smp.Value
		}
	}
	if want := float64(1 + len(sources)); starts != want {
		t.Errorf("traversal_start events = %v, want %v (1 reach + %d multi sources)", starts, want, len(sources))
	}

	var flat map[string]float64
	if err := json.Unmarshal(get("/metrics.json"), &flat); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	series := 0
	for _, line := range strings.Split(string(page), "\n") {
		key, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		series++
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("page line %q: %v", line, err)
		}
		if got, ok := flat[key]; !ok || got != v {
			t.Errorf("/metrics.json[%s] = %v (present %v), /metrics says %v", key, got, ok, v)
		}
	}
	if series != len(flat) {
		t.Errorf("/metrics has %d series, /metrics.json %d", series, len(flat))
	}
}
