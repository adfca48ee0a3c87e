package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// postQuery sends one query to a test server and decodes the envelope.
func postQuery(t *testing.T, ts *httptest.Server, body string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatalf("response is not JSON (%v): %s", err, data)
	}
	return resp.StatusCode, fields
}

func errorCode(t *testing.T, fields map[string]json.RawMessage) string {
	t.Helper()
	var env struct {
		Code string `json:"code"`
	}
	if raw, ok := fields["error"]; ok {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("error envelope: %v", err)
		}
	}
	return env.Code
}

// handlerCase is one /query body and the status (and error code) it
// must draw. FuzzQuery seeds its corpus with the same bodies.
type handlerCase struct {
	name   string
	body   string
	status int
	code   string
}

func handlerCases(g *graph.CSR, src int32) []handlerCase {
	reach := fmt.Sprintf(`{"kind": "reach", "source": %d, "target": 0}`, src)
	pad := strings.Repeat(" ", maxRequestBody)
	return []handlerCase{
		{"malformed JSON", `{"kind": "reach", `, 400, "bad_request"},
		{"wrong type", `{"kind": "reach", "source": "zero"}`, 400, "bad_request"},
		{"no kind", `{"source": 1}`, 400, "bad_request"},
		{"unknown kind", `{"kind": "dfs", "source": 1}`, 400, "bad_request"},
		{"unknown graph", `{"graph": "absent", "kind": "reach", "source": 1, "target": 2}`, 404, "unknown_graph"},
		{"vertex out of range", fmt.Sprintf(`{"kind": "reach", "source": %d, "target": 0}`, g.NumVertices()), 400, "bad_request"},
		{"ok reach", reach, 200, ""},
		{"oversized after a valid query", reach + pad + "garbage", 413, "too_large"},
		{"oversized before a valid query", pad + reach, 413, "too_large"},
	}
}

func TestHandlerTable(t *testing.T) {
	g := mustRMAT(t, 9, 8, 3)
	s := newTestServer(t, Config{DefaultDeadline: 50 * time.Millisecond}, g)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range handlerCases(g, firstSource(t, g)) {
		t.Run(tc.name, func(t *testing.T) {
			status, fields := postQuery(t, ts, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (%v)", status, tc.status, fields)
			}
			if tc.code != "" {
				if code := errorCode(t, fields); code != tc.code {
					t.Errorf("error code = %q, want %q", code, tc.code)
				}
			}
		})
	}

	t.Run("GET /query is rejected", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/query")
		if err != nil {
			t.Fatalf("GET /query: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /query = %d, want 405", resp.StatusCode)
		}
	})
}

func TestHandlerDeadlineIs504(t *testing.T) {
	g := pathGraph(t, 64)
	s := newTestServer(t, Config{DefaultDeadline: 20 * time.Millisecond}, g)
	defer s.Close()
	be := newBlockingEngine()
	defer close(be.release)
	setEngine(t, s, "g", be)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, fields := postQuery(t, ts, `{"kind": "khop", "source": 0}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", status, fields)
	}
	if code := errorCode(t, fields); code != "deadline" {
		t.Errorf("error code = %q, want deadline", code)
	}
}

func TestHandlerQueueFullIs429WithRetryAfter(t *testing.T) {
	g := pathGraph(t, 64)
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1, DefaultDeadline: 5 * time.Second}, g)
	be := newBlockingEngine()
	setEngine(t, s, "g", be)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"kind": "khop", "source": 0}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	select {
	case <-be.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("holder never reached the engine")
	}

	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"kind": "reach", "source": 0, "target": 1}`))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}

	close(be.release)
	<-done
	s.Close()
}

func TestOperationalEndpoints(t *testing.T) {
	g := mustRMAT(t, 9, 8, 3)
	s := newTestServer(t, Config{SampleK: 1}, g)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := firstSource(t, g)

	// Serve a few queries so every endpoint has something to show.
	for i := 0; i < 3; i++ {
		status, _ := postQuery(t, ts, fmt.Sprintf(`{"kind": "reach", "source": %d, "target": %d}`, src, i))
		if status != 200 {
			t.Fatalf("warmup query %d: status %d", i, status)
		}
	}

	t.Run("graphs", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/graphs")
		if err != nil {
			t.Fatalf("GET /graphs: %v", err)
		}
		defer resp.Body.Close()
		var payload struct {
			Graphs []GraphInfo `json:"graphs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatalf("decoding /graphs: %v", err)
		}
		if len(payload.Graphs) != 1 || payload.Graphs[0].Name != "g" {
			t.Fatalf("/graphs = %+v, want one graph named g", payload.Graphs)
		}
		if payload.Graphs[0].Vertices != g.NumVertices() || payload.Graphs[0].Engine == "" {
			t.Errorf("/graphs entry incomplete: %+v", payload.Graphs[0])
		}
	})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		var h healthzPayload
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decoding /healthz: %v", err)
		}
		if h.Status != "ok" || h.Graphs != 1 || h.Slots < 1 {
			t.Errorf("/healthz = %+v", h)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		for _, want := range []string{
			`crossbfs_engine_events_total{engine="bidirectional",kind="traversal_start"} 3`,
			`crossbfs_admission_outcomes_total{reason="ok"} 3`,
			"crossbfs_admission_inflight 0",
		} {
			if !bytes.Contains(text, []byte(want)) {
				t.Errorf("/metrics misses %s", want)
			}
		}
	})

	t.Run("metrics.json", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics.json")
		if err != nil {
			t.Fatalf("GET /metrics.json: %v", err)
		}
		defer resp.Body.Close()
		var snap map[string]float64
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decoding /metrics.json: %v", err)
		}
		if snap[`crossbfs_admission_outcomes_total{reason="ok"}`] != 3 ||
			snap[`crossbfs_engine_events_total{engine="bidirectional",kind="traversal_start"}`] != 3 {
			t.Errorf("metrics.json counters wrong: %+v", snap)
		}
	})

	t.Run("flight dump validates", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/debug/flight")
		if err != nil {
			t.Fatalf("GET /debug/flight: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		summary, err := obs.ValidateTrace(data)
		if err != nil {
			t.Fatalf("flight dump fails ValidateTrace: %v\n%s", err, data)
		}
		if summary.Levels < 3 {
			t.Errorf("flight dump has %d level slices, want >= 3", summary.Levels)
		}
	})
}

// TestConcurrentQueriesMatchSerial is the race-mode serving gate: many
// goroutines hammer one server over HTTP with mixed kinds while the
// serial kernel's answers (computed up front, per source) stay the
// referee. Any cross-request workspace bleed, recorder race, or
// admission bug shows up as a wrong answer or a -race report.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	g := mustRMAT(t, 10, 8, 11)
	s := newTestServer(t, Config{MaxConcurrent: 4, QueueDepth: 256, DefaultDeadline: 10 * time.Second}, g)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Reference traversals from a handful of sources.
	sources := []int32{firstSource(t, g)}
	for v := 0; v < g.NumVertices() && len(sources) < 4; v++ {
		if g.Degree(int32(v)) > 4 && int32(v) != sources[0] {
			sources = append(sources, int32(v))
		}
	}
	refs := make(map[int32]*bfs.Result, len(sources))
	for _, src := range sources {
		ref, err := bfs.SerialEngine().Run(g, src, nil)
		if err != nil {
			t.Fatalf("Serial(%d): %v", src, err)
		}
		refs[src] = ref
	}

	const workers = 8
	const queriesPerWorker = 15
	var wg sync.WaitGroup
	errc := make(chan error, workers*queriesPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < queriesPerWorker; i++ {
				src := sources[rng.Intn(len(sources))]
				ref := refs[src]
				target := int32(rng.Intn(g.NumVertices()))
				var body string
				kind := rng.Intn(3)
				switch kind {
				case 0:
					body = fmt.Sprintf(`{"kind": "reach", "source": %d, "target": %d}`, src, target)
				case 1:
					body = fmt.Sprintf(`{"kind": "path", "source": %d, "target": %d}`, src, target)
				default:
					body = fmt.Sprintf(`{"kind": "khop", "source": %d, "k": 2}`, src)
				}
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("worker %d: status %d: %s", w, resp.StatusCode, data)
					return
				}
				var r Response
				if err := json.Unmarshal(data, &r); err != nil {
					errc <- fmt.Errorf("worker %d: decode: %v", w, err)
					return
				}
				switch kind {
				case 0:
					wantReach := ref.Level[target] != bfs.NotVisited
					if *r.Reachable != wantReach || r.Distance != ref.Level[target] {
						errc <- fmt.Errorf("reach(%d,%d) = (%v,%d), serial (%v,%d)",
							src, target, *r.Reachable, r.Distance, wantReach, ref.Level[target])
						return
					}
				case 1:
					if ref.Level[target] >= 0 {
						if int32(len(r.Path)-1) != ref.Level[target] {
							errc <- fmt.Errorf("path(%d,%d) has %d hops, serial level %d",
								src, target, len(r.Path)-1, ref.Level[target])
							return
						}
					} else if len(r.Path) != 0 {
						errc <- fmt.Errorf("path(%d,%d) nonempty for unreachable target", src, target)
						return
					}
				default:
					var within int64
					for _, l := range ref.Level {
						if l >= 0 && l <= 2 {
							within++
						}
					}
					if r.WithinK != within {
						errc <- fmt.Errorf("khop(%d,2) = %d, serial %d", src, r.WithinK, within)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestShutdownSettlesGoroutines pins the teardown contract: after the
// HTTP listener closes and Server.Close drains, no serve-layer
// goroutine survives.
func TestShutdownSettlesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	g := mustRMAT(t, 9, 8, 3)
	s := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 16}, g)
	ts := httptest.NewServer(s.Handler())
	src := firstSource(t, g)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(ts.URL+"/query", "application/json",
					strings.NewReader(fmt.Sprintf(`{"kind": "reach", "source": %d, "target": %d}`, src, i)))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutine leak across shutdown: %d alive, started with %d", runtime.NumGoroutine(), base)
}

// FuzzQuery throws arbitrary bodies at POST /query through the real
// handler. Every response is a 200 or the typed error envelope with a
// client-facing status (400, 404, 413, 429, 504) — never a 500, never
// a panic — and every 200 reach and path answer matches the serial
// reference.
func FuzzQuery(f *testing.F) {
	g := mustRMAT(f, 9, 8, 3)
	s := newTestServer(f, Config{DefaultDeadline: 50 * time.Millisecond}, g)
	defer s.Close()
	h := s.Handler()
	for _, tc := range handlerCases(g, firstSource(f, g)) {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"kind": "multi", "sources": [0, 1, 2, 3]}`))
	f.Add([]byte(`{"kind": "khop", "source": 1, "k": 2}`))
	f.Add([]byte(`{"kind": "path", "source": 1, "target": 7, "deadline_ms": 5}`))

	levels := make(map[int32][]int32)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case 400, 404, 413, 429, 504:
			var env struct {
				Error *Error `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil ||
				env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d without the error envelope: %s", rec.Code, rec.Body)
			}
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var q Query
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		if q.Kind != KindReach && q.Kind != KindPath {
			return
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 %s body does not decode: %v", q.Kind, err)
		}
		level, ok := levels[q.Source]
		if !ok {
			r, err := bfs.SerialEngine().Run(g, q.Source, nil)
			if err != nil {
				t.Fatalf("serial reference from %d: %v", q.Source, err)
			}
			level = r.Level
			levels[q.Source] = level
		}
		want := level[q.Target]
		if resp.Reachable == nil || *resp.Reachable != (want != bfs.NotVisited) || resp.Distance != want {
			t.Fatalf("%s(%d,%d) = %+v, serial level %d", q.Kind, q.Source, q.Target, resp, want)
		}
		if q.Kind == KindPath {
			checkServedPath(t, g, level, q.Source, q.Target, resp.Path)
		}
	})
}

// checkServedPath checks a path answer against the serial level map
// from source: no path to an unreachable target, and otherwise
// level[target]+1 vertices from source to target, an edge for every
// hop, and vertex i at level i.
func checkServedPath(t testing.TB, g *graph.CSR, level []int32, source, target int32, path []int32) {
	t.Helper()
	want := level[target]
	if want == bfs.NotVisited {
		if len(path) != 0 {
			t.Fatalf("path(%d,%d) = %v for an unreachable target", source, target, path)
		}
		return
	}
	if len(path) != int(want)+1 || path[0] != source || path[len(path)-1] != target {
		t.Fatalf("path(%d,%d) = %v, want %d vertices from %d to %d", source, target, path, want+1, source, target)
	}
	for i, v := range path {
		if level[v] != int32(i) {
			t.Fatalf("path(%d,%d) = %v: vertex %d is %d at serial level %d", source, target, path, i, v, level[v])
		}
		if i > 0 && !g.HasEdge(path[i-1], v) {
			t.Fatalf("path(%d,%d) = %v: no edge %d-%d", source, target, path, path[i-1], v)
		}
	}
}
