package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/graph500"
	"crossbfs/internal/obs"
	"crossbfs/internal/serve"
	"crossbfs/internal/xmath"
)

const (
	serveScale = 16
	// serveRate is about half the rate at which this mix saturates the
	// server on a 2-vCPU host, so queues stay short but real.
	serveRate = 120.0
	// olapEvery makes every tenth request an 8-source multi.
	olapEvery    = 10
	multiSources = 8
	// sourcePool is the root sample the zipf-skewed sources come from.
	sourcePool = 128
	// reqHeader carries the request index to the traced handler wrapper.
	reqHeader = "X-Perfbench-Request"
)

// handlerSpan is one ServeHTTP call as the traced wrapper timed it.
type handlerSpan struct{ start, end time.Time }

type serveSession struct {
	g      *graph.CSR
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	roots  []int32
	seed   uint64
	conns  []*http.Client
	scrape *http.Client

	// Traced sessions only.
	rec      *eventRecorder
	hmu      sync.Mutex
	handlers map[int]handlerSpan
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// setupServe is the bfsd core in process: generation, CSR build,
// server construction with AddGraph, a loopback listener, readiness,
// and one warm query. A traced set-up keeps every traversal (SampleK
// 1) and taps the events through serve.Config.Recorder.
func setupServe(seed uint64, tr *tracer) (session, setupTimes, error) {
	var t setupTimes
	top := tr.begin("setup", laneSetup, -1)
	g, err := rmatGraph(serveScale, seed, tr, top.idx, &t)
	if err != nil {
		return nil, t, err
	}
	s := &serveSession{g: g, seed: seed, served: make(chan error, 1), scrape: newClient()}
	for i := 0; i < runtime.NumCPU(); i++ {
		s.conns = append(s.conns, newClient())
	}
	m := tr.begin("serve.NewServer+AddGraph", laneSetup, top.idx)
	var cfg serve.Config
	if tr != nil {
		s.rec = newEventRecorder()
		s.handlers = map[int]handlerSpan{}
		cfg.SampleK = 1
		cfg.Recorder = s.rec
	}
	s.srv = serve.NewServer(cfg)
	err = s.srv.AddGraph("g", fmt.Sprintf("rmat:%d:16:%d", serveScale, seed), g)
	m.end()
	if err != nil {
		return nil, t, err
	}
	m = tr.begin("listen+ready", laneSetup, top.idx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, t, err
	}
	s.url = "http://" + ln.Addr().String()
	var h http.Handler = s.srv.Handler()
	if tr != nil {
		h = s.traceHandler(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.srv.SetReady(true)
	err = s.waitReady()
	m.end()
	if err != nil {
		s.close()
		return nil, t, err
	}
	s.roots = graph500.SampleRoots(g, sourcePool, seed)
	m = tr.begin("warm query", laneSetup, top.idx)
	_, err = s.query(s.conns[0], -1, reachBody(s.roots[0], s.roots[0]))
	m.end()
	t.total = top.end()
	if err != nil {
		s.close()
		return nil, t, fmt.Errorf("warm query: %w", err)
	}
	return s, t, nil
}

func (s *serveSession) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.conns[0].Get(s.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// traceHandler wraps the server's handler with a span per request.
func (s *serveSession) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if i, err := strconv.Atoi(r.Header.Get(reqHeader)); err == nil {
			s.hmu.Lock()
			s.handlers[i] = handlerSpan{start, end}
			s.hmu.Unlock()
		}
	})
}

func (s *serveSession) close() {
	for _, c := range append(s.conns, s.scrape) {
		c.CloseIdleConnections()
	}
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.hs.Shutdown(ctx) // a failed drain leaves nothing to report: the listener is closed either way
		<-s.served
		s.hs = nil
	}
	s.srv.Close()
}

func reachBody(source, target int32) []byte {
	b, _ := json.Marshal(serve.Query{Kind: serve.KindReach, Source: source, Target: target}) // a struct of ints always encodes
	return b
}

// query posts one request and decodes the answer; i >= 0 tags it for
// the traced handler wrapper.
func (s *serveSession) query(c *http.Client, i int, body []byte) (*serve.Response, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.rec != nil && i >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(i))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return &out, nil
}

// mix is the generated request stream of one timed phase.
type mix struct {
	due    []time.Duration
	multi  []bool
	source [][]int32 // one source for a reach, multiSources for a multi
	target []int32
	body   [][]byte
}

// makeMix draws the phase's requests from the seed: Poisson arrivals,
// exactly one multi in olapEvery, sources zipf-skewed over the root
// sample and reach targets uniform over the vertices.
func makeMix(seed uint64, seconds float64, roots []int32, numVertices int) mix {
	n := int(serveRate * seconds)
	m := mix{
		due:    poissonSchedule(seed, serveRate, n),
		multi:  make([]bool, n),
		source: make([][]int32, n),
		target: make([]int32, n),
		body:   make([][]byte, n),
	}
	rng := newRand(seed, 2)
	for _, i := range rng.Perm(n)[:n/olapEvery] {
		m.multi[i] = true
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(roots)-1))
	for i := range m.due {
		q := serve.Query{Kind: serve.KindReach}
		if m.multi[i] {
			q.Kind = serve.KindMulti
			for k := 0; k < multiSources; k++ {
				q.Sources = append(q.Sources, roots[zipf.Uint64()])
			}
			m.source[i] = q.Sources
		} else {
			q.Source = roots[zipf.Uint64()]
			q.Target = int32(rng.IntN(numVertices))
			m.source[i] = []int32{q.Source}
			m.target[i] = q.Target
		}
		m.body[i], _ = json.Marshal(q) // ints and strings always encode
	}
	return m
}

// scrapeSample is one /metrics scrape.
type scrapeSample struct {
	ms    float64
	bytes int
	body  []byte
	err   error
}

func (s *serveSession) scrapeOnce() scrapeSample {
	start := time.Now()
	resp, err := s.scrape.Get(s.url + "/metrics")
	if err != nil {
		return scrapeSample{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	return scrapeSample{ms: time.Since(start).Seconds() * 1e3, bytes: len(body), body: body, err: err}
}

// scrapeEverySecond scrapes /metrics once a second, as Prometheus
// would, until stop closes; it returns when the last scrape is done.
func (s *serveSession) scrapeEverySecond(stop <-chan struct{}) <-chan []scrapeSample {
	out := make(chan []scrapeSample, 1)
	go func() {
		var got []scrapeSample
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			got = append(got, s.scrapeOnce())
			select {
			case <-stop:
				out <- got
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// refused sums the 429 and 504 admission outcomes of a parsed scrape.
func refused(fams []obs.ExpoFamily) (float64, error) {
	for _, f := range fams {
		if f.Name != "crossbfs_admission_outcomes_total" {
			continue
		}
		var total float64
		found := 0
		for _, s := range f.Samples {
			if r := s.Labels["reason"]; r == "queue_full" || r == "deadline" {
				total += s.Value
				found++
			}
		}
		if found != 2 {
			return 0, fmt.Errorf("crossbfs_admission_outcomes_total has %d of the queue_full and deadline series", found)
		}
		return total, nil
	}
	return 0, fmt.Errorf("scrape lacks crossbfs_admission_outcomes_total")
}

func (s *serveSession) measure(seconds float64, tr *tracer, allocs bool) (*phase, error) {
	mx := makeMix(s.seed, seconds, s.roots, s.g.NumVertices())
	var events0 int64
	if s.rec != nil {
		s.rec.take() // the warm query's traversal
		events0 = s.rec.count()
	}
	resps := make([]*serve.Response, len(mx.due))
	before, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	scrapes := s.scrapeEverySecond(stop)
	ac := newAllocCounter()
	a0 := ac.read()
	start := time.Now()
	sent := openLoop(start, mx.due, len(s.conns), func(conn, i int) error {
		r, err := s.query(s.conns[conn], i, mx.body[i])
		resps[i] = r //lint:shared-ok index i is claimed by exactly one worker
		return err
	})
	allocCount := ac.read() - a0
	after, err := readCPUTicks()
	var events int64
	if s.rec != nil {
		events = s.rec.count() - events0
	}
	close(stop)
	scraped := <-scrapes
	if err != nil {
		return nil, err
	}
	scraped = append(scraped, s.scrapeOnce())

	ph := &phase{e2e: metrics{}, layer: metrics{}, steal: stealShare(before, after)}
	var firstErr error
	fail := func(err error) {
		ph.failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	ph.attempted = len(sent) + len(scraped)
	// Every page must parse and validate as an exposition.
	var finalPage []obs.ExpoFamily
	for i, sc := range scraped {
		err := sc.err
		if err == nil {
			finalPage, err = obs.ParseExposition(bytes.NewReader(sc.body))
		}
		if err != nil {
			fail(fmt.Errorf("scrape %d: %w", i, err))
		}
	}
	for i, t := range sent {
		if t.err != nil {
			fail(fmt.Errorf("request %d: %w", i, t.err))
		}
	}
	// Answers are checked after the timed phase, grouped by source so
	// each serial traversal runs once.
	teps, serialMS, err := s.checkAnswers(mx, resps, fail)
	if err != nil {
		return nil, err
	}
	if ph.failed > 0 {
		return ph, fmt.Errorf("%d of %d operations failed, first: %w", ph.failed, ph.attempted, firstErr)
	}
	var oltp, olap, lag, service, olapService []float64
	for i, t := range sent {
		ms := float64(t.latency()) / 1e6
		lag = append(lag, float64(t.lag())/1e6)
		if mx.multi[i] {
			olap = append(olap, ms)
			olapService = append(olapService, float64(resps[i].ElapsedUS)/1e3)
		} else {
			oltp = append(oltp, ms)
			service = append(service, float64(resps[i].ElapsedUS)/1e3)
		}
	}
	logf("timed phase: %d requests (%d multi) and %d scrapes in %.1fs", len(sent), len(olap), len(scraped), time.Since(start).Seconds())
	ph.e2e.set("mteps", teps, "MTEPS")
	for _, p := range []struct {
		m    metrics
		name string
		xs   []float64
		pct  float64
	}{
		{ph.e2e, "oltp_ms_p50", oltp, 50}, {ph.layer, "oltp_ms_p99", oltp, 99},
		{ph.e2e, "olap_ms_p50", olap, 50}, {ph.layer, "olap_ms_p95", olap, 95},
		{ph.layer, "serve.service_ms_p99", service, 99},
		{ph.layer, "serve.olap_service_ms_p50", olapService, 50},
		{ph.layer, "load.send_lag_ms_p99", lag, 99},
	} {
		v, err := percentile(p.xs, p.pct)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		p.m.set(p.name, v, "ms")
	}
	if allocs {
		ph.layer.set("serve.allocs_per_query", float64(allocCount)/float64(len(sent)), "count")
	}
	if tr != nil {
		if err := s.layerMetrics(ph.layer, tr, start, mx, sent, resps, scraped, events); err != nil {
			return nil, err
		}
		n, err := refused(finalPage)
		if err != nil {
			return nil, err
		}
		ph.layer.set("serve.refused", n, "count")
		p50, err := percentile(serialMS, 50)
		if err != nil {
			return nil, err
		}
		ph.layer.set("bfs.serial_ms_p50", p50, "ms")
	}
	return ph, nil
}

// checkAnswers compares every reach distance and every multi
// per-source reach and depth with bfs.SerialEngine, one serial run per
// distinct source. It returns the reach queries' traversal rate, their
// Graph 500 edges over their summed service time in millions a second,
// and the serial runs' times. The rate is a ratio of sums, not the
// batches' harmonic mean: a reach from a source outside the giant
// component traverses a handful of edges, and the harmonic mean would
// let one such query set the whole figure.
func (s *serveSession) checkAnswers(mx mix, resps []*serve.Response, fail func(error)) (float64, []float64, error) {
	bySource := map[int32][]int{}
	for i, srcs := range mx.source {
		r := resps[i]
		if r == nil {
			continue
		}
		if mx.multi[i] && len(r.Results) != len(srcs) {
			fail(fmt.Errorf("request %d: multi answered %d sources, want %d", i, len(r.Results), len(srcs)))
			continue
		}
		for _, src := range srcs {
			bySource[src] = append(bySource[src], i)
		}
	}
	var edges int64
	var secs float64
	var serialMS []float64
	ws := bfs.NewWorkspace(s.g.NumVertices())
	for src, idx := range bySource {
		start := time.Now()
		ref, err := bfs.SerialEngine().Run(s.g, src, ws)
		serialMS = append(serialMS, time.Since(start).Seconds()*1e3)
		if err != nil {
			return 0, nil, fmt.Errorf("serial reference from %d: %w", src, err)
		}
		for _, i := range idx {
			r := resps[i]
			if mx.multi[i] {
				for k, sr := range r.Results {
					if mx.source[i][k] == src && (sr.Source != src || sr.Visited != ref.VisitedCount || sr.Depth != ref.Depth()) {
						fail(fmt.Errorf("request %d: multi source %d answered %+v, serial visited %d depth %d", i, src, sr, ref.VisitedCount, ref.Depth()))
					}
				}
				continue
			}
			want := ref.Level[mx.target[i]]
			if r.Reachable == nil || *r.Reachable != (want >= 0) || r.Distance != want {
				fail(fmt.Errorf("request %d: reach %d->%d answered distance %d, serial %d", i, src, mx.target[i], r.Distance, want))
				continue
			}
			edges += ref.TraversedEdges
			secs += float64(r.ElapsedUS) * 1e-6
		}
	}
	if secs == 0 {
		return 0, nil, fmt.Errorf("no reach query was answered")
	}
	return float64(edges) / 2 / secs / 1e6, serialMS, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerMetrics joins each request's spans outside in: due to send,
// the client round trip, the handler, the service time the server
// reports (ElapsedUS), and for a reach the traversal whose TraversalID
// the response carries, with its levels.
func (s *serveSession) layerMetrics(m metrics, tr *tracer, start time.Time, mx mix, sent []sendTiming, resps []*serve.Response, scraped []scrapeSample, events int64) error {
	travs := s.rec.take()
	byID := make(map[uint64]*traversal, len(travs))
	for _, t := range travs {
		byID[t.id] = t
	}
	s.hmu.Lock()
	handlers := s.handlers
	s.handlers = map[int]handlerSpan{}
	s.hmu.Unlock()
	for c := range s.conns {
		tr.lanes[laneConn+c] = fmt.Sprintf("connection %d", c)
	}
	tr.lanes[laneSetup] = "set-up"

	var ls levelStats
	joined := map[uint64]bool{}
	var engine, overhead, codec, transport []float64
	at := func(d time.Duration) int64 { return tr.ns(start.Add(d)) }
	for i, t := range sent {
		h, ok := handlers[i]
		if !ok {
			return fmt.Errorf("request %d has no handler span", i)
		}
		lane := laneConn + t.conn
		kind, parent := "reach", -1
		if mx.multi[i] {
			kind = "multi"
		}
		elapsed := time.Duration(resps[i].ElapsedUS) * time.Microsecond
		if i < keepOps {
			req := tr.add(span{name: "request " + kind, lane: lane, group: uint64(i), parent: -1, iv: interval{at(t.due), at(t.done)}})
			tr.add(span{name: "load.wait", lane: lane, group: uint64(i), parent: req, iv: interval{at(t.due), at(t.sent)}})
			rt := tr.add(span{name: "http.roundtrip", lane: lane, group: uint64(i), parent: req, iv: interval{at(t.sent), at(t.done)}})
			hs := tr.add(span{name: "serve.handler", lane: lane, group: uint64(i), parent: rt, iv: interval{tr.ns(h.start), tr.ns(h.end)}})
			// ElapsedUS is a duration only; the span is placed to end
			// with the handler's traversal, or with the handler for a
			// multi, whose traversals the response does not name.
			end := h.end
			if tv := byID[resps[i].TraversalID]; tv != nil && !mx.multi[i] {
				end = tv.end
			}
			parent = tr.add(span{name: "serve.service", lane: lane, group: uint64(i), parent: hs, iv: interval{tr.ns(end.Add(-elapsed)), tr.ns(end)}})
		}
		if mx.multi[i] {
			continue
		}
		hdur := h.end.Sub(h.start)
		codec = append(codec, ms(hdur-elapsed))
		transport = append(transport, ms(t.done-t.sent-hdur))
		tv := byID[resps[i].TraversalID]
		if tv == nil {
			return fmt.Errorf("request %d: no traversal events for TraversalID %d", i, resps[i].TraversalID)
		}
		joined[tv.id] = true
		eng := tv.end.Sub(tv.start)
		engine = append(engine, ms(eng))
		overhead = append(overhead, ms(elapsed-eng))
		run := interval{tr.ns(tv.start), tr.ns(tv.end)}
		if parent >= 0 {
			parent = tr.add(span{name: "bfs.traversal", lane: lane, group: tv.id, parent: parent, iv: run})
		}
		ls.add(tv, run, tr, lane, parent)
	}
	// The multi queries' traversals join the level metrics only.
	for _, t := range travs {
		if !joined[t.id] {
			ls.add(t, interval{tr.ns(t.start), tr.ns(t.end)}, tr, 0, -1)
		}
	}
	for _, p := range []struct {
		name string
		xs   []float64
	}{
		{"serve.engine_ms_p50", engine}, {"serve.overhead_ms_p50", overhead},
		{"serve.codec_ms_p50", codec}, {"serve.transport_ms_p50", transport},
	} {
		v, err := percentile(p.xs, 50)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m.set(p.name, v, "ms")
	}
	if err := ls.metrics(m); err != nil {
		return err
	}
	var scrapeMS, scrapeBytes []float64
	for _, sc := range scraped {
		scrapeMS = append(scrapeMS, sc.ms)
		scrapeBytes = append(scrapeBytes, float64(sc.bytes))
	}
	// About one scrape a second is too few for the percentile rule;
	// these are plain medians.
	m.set("obs.scrape_ms_p50", xmath.Median(scrapeMS), "ms")
	m.set("obs.scrape_bytes", xmath.Median(scrapeBytes), "bytes")
	m.set("obs.events_per_query", float64(events)/float64(len(sent)), "count")
	return nil
}
