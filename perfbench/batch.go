package main

import (
	"context"
	"fmt"
	"hash/maphash"
	rtmetrics "runtime/metrics"
	"time"
	"unsafe"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/graph500"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
)

// keepOps bounds how many operations of a traced phase keep their
// spans for the span file; the metrics use every operation.
const keepOps = 64

// batchScale is the R-MAT SCALE of rmat-batch, at Graph 500's edge
// factor 16.
const batchScale = 18

// batchSession is Graph 500 kernel 2, run the way cmd/graph500 -mode
// real runs it: one root in flight on bfs.DefaultEngine, one reused
// workspace, each traversal timed on its own.
type batchSession struct {
	g     *graph.CSR
	roots []int32
	ws    *bfs.Workspace
	eng   bfs.Engine
}

// rmatGraph generates R-MAT SCALE scale, edge factor 16, from seed and
// builds its CSR, timing both calls into t under the span parent.
func rmatGraph(scale int, seed uint64, tr *tracer, parent int, t *setupTimes) (*graph.CSR, error) {
	m := tr.begin("rmat.Edges", laneSetup, parent)
	p := rmat.DefaultParams(scale, 16)
	p.Seed = seed
	edges, err := rmat.Edges(p)
	t.rmat = m.end()
	if err != nil {
		return nil, err
	}
	m = tr.begin("graph.Build", laneSetup, parent)
	g, err := graph.Build(p.NumVertices(), edges, graph.BuildOptions{Symmetrize: true})
	t.build = m.end()
	return g, err
}

// setupBatch is generation, CSR build, root sampling and one warm
// traversal.
func setupBatch(seed uint64, tr *tracer) (session, setupTimes, error) {
	var t setupTimes
	top := tr.begin("setup", laneSetup, -1)
	g, err := rmatGraph(batchScale, seed, tr, top.idx, &t)
	if err != nil {
		return nil, t, err
	}
	s := &batchSession{
		g:     g,
		roots: graph500.SampleRoots(g, graph500.DefaultNumRoots, seed),
		ws:    bfs.NewWorkspace(g.NumVertices()),
		eng:   bfs.DefaultEngine(),
	}
	m := tr.begin("bfs.warm", laneSetup, top.idx)
	_, err = s.eng.Run(g, s.roots[0], s.ws)
	m.end()
	t.total = top.end()
	return s, t, err
}

func (s *batchSession) close() {}

// answer is the serial engine's result for one root: a hash of its
// level map and its reach.
type answer struct {
	levels  uint64
	visited int64
}

var hashSeed = maphash.MakeSeed()

func hashInt32s(xs []int32) uint64 {
	if len(xs) == 0 {
		return 0
	}
	return maphash.Bytes(hashSeed, unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 4*len(xs)))
}

// serialAnswers runs bfs.SerialEngine once per root and times each
// run.
func serialAnswers(g *graph.CSR, roots []int32) (map[int32]answer, []float64, error) {
	ans := make(map[int32]answer, len(roots))
	var ms []float64
	ws := bfs.NewWorkspace(g.NumVertices())
	for _, root := range roots {
		start := time.Now()
		r, err := bfs.SerialEngine().Run(g, root, ws)
		ms = append(ms, time.Since(start).Seconds()*1e3)
		if err != nil {
			return nil, nil, fmt.Errorf("serial reference from %d: %w", root, err)
		}
		ans[root] = answer{levels: hashInt32s(r.Level), visited: r.VisitedCount}
	}
	return ans, ms, nil
}

// allocCounter reads the process's cumulative heap allocation count
// into a sample it owns, so a reading allocates nothing itself.
type allocCounter []rtmetrics.Sample

func newAllocCounter() allocCounter { return allocCounter{{Name: "/gc/heap/allocs:objects"}} }

func (c allocCounter) read() uint64 {
	rtmetrics.Read(c)
	return c[0].Value.Uint64()
}

func (s *batchSession) measure(seconds float64, tr *tracer, allocs bool) (*phase, error) {
	answers, serialMS, err := serialAnswers(s.g, s.roots)
	if err != nil {
		return nil, err
	}
	var rec *eventRecorder
	var obsRec obs.Recorder // stays nil untraced: RunObserved is then RunContext
	if tr != nil {
		rec = newEventRecorder()
		obsRec = rec
		tr.lanes[laneSetup] = "set-up"
		tr.lanes[laneBatch] = "traversals"
	}
	// Every result passes bfs.Validate. Validate is a pure function of
	// the graph and the result, and an engine repeats the same tree for
	// a root, so a result whose hashes match one already validated for
	// that root is not validated again.
	validated := map[[3]uint64]bool{}
	check := func(root int32, r *bfs.Result) error {
		lh := hashInt32s(r.Level)
		if a := answers[root]; lh != a.levels || r.VisitedCount != a.visited {
			return fmt.Errorf("root %d: level map differs from the serial engine's", root)
		}
		k := [3]uint64{uint64(root), lh, hashInt32s(r.Parent)}
		if !validated[k] {
			if err := bfs.Validate(s.g, r); err != nil {
				return fmt.Errorf("root %d: %w", root, err)
			}
			validated[k] = true
		}
		return nil
	}

	ph := &phase{e2e: metrics{}, layer: metrics{}}
	var secs []float64
	var edges []int64
	var ls levelStats
	var allocCount uint64
	ac := newAllocCounter()
	var firstErr error
	// Percentiles need samplesFor traversals, and 8-root groups for
	// the olap ones; a slow host phase lengthens the run up to 1.5x.
	need := max(samplesFor(99), 8*samplesFor(95))
	ctx := context.Background()
	before, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start).Seconds(); (el >= seconds && len(secs) >= need) || el >= 1.5*seconds {
			break
		}
		root := s.roots[i%len(s.roots)]
		var a0 uint64
		if allocs {
			a0 = ac.read()
		}
		t0 := time.Now()
		r, err := s.eng.RunObserved(ctx, s.g, root, s.ws, obsRec)
		t1 := time.Now()
		if allocs {
			allocCount += ac.read() - a0
		}
		ph.attempted++
		if err == nil {
			err = check(root, r)
		}
		if err != nil {
			ph.failed++
			firstErr = err
			continue
		}
		secs = append(secs, t1.Sub(t0).Seconds())
		edges = append(edges, r.TraversedEdges)
		if rec != nil {
			run := interval{tr.ns(t0), tr.ns(t1)}
			for _, t := range rec.take() {
				parent := -1
				if len(secs) <= keepOps {
					parent = tr.add(span{name: "bfs.run", lane: laneBatch, group: t.id, parent: -1, iv: run,
						args: map[string]any{"root": root}})
				}
				ls.add(t, run, tr, laneBatch, parent)
			}
		}
	}
	after, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	ph.steal = stealShare(before, after)
	if ph.failed > 0 {
		return ph, fmt.Errorf("%d of %d traversals failed, first: %w", ph.failed, ph.attempted, firstErr)
	}
	var busy float64
	for _, x := range secs {
		busy += x
	}
	logf("timed phase: %d traversals, %.1fs of %.1fs in traversals, %d validated in full", len(secs), busy, time.Since(start).Seconds(), len(validated))
	if err := batchLatency(ph, secs, edges); err != nil {
		return nil, err
	}
	if allocs {
		ph.layer.set("bfs.allocs_per_op", float64(allocCount)/float64(ph.attempted), "count")
	}
	if tr != nil {
		if err := ls.metrics(ph.layer); err != nil {
			return nil, err
		}
		p50, err := percentile(serialMS, 50)
		if err != nil {
			return nil, err
		}
		ph.layer.set("bfs.serial_ms_p50", p50, "ms")
		ph.layer.set("obs.events_per_query", float64(rec.count())/float64(ph.attempted), "count")
	}
	return ph, nil
}

// batchLatency sets a batch's MTEPS and the latency of the two query
// shapes serve-mixed sends, on the engine's own clock: one traversal
// (a reach) and eight consecutive ones (a multi, whose roots run one
// after another).
func batchLatency(ph *phase, secs []float64, edges []int64) error {
	ph.e2e.set("mteps", harmonicMTEPS(edges, secs), "MTEPS")
	one := make([]float64, len(secs))
	var eight []float64
	var group float64
	for i, s := range secs {
		one[i] = s * 1e3
		group += s * 1e3
		if i%8 == 7 {
			eight = append(eight, group)
			group = 0
		}
	}
	for _, p := range []struct {
		m    metrics
		name string
		xs   []float64
		pct  float64
	}{
		{ph.e2e, "oltp_ms_p50", one, 50}, {ph.layer, "oltp_ms_p99", one, 99},
		{ph.e2e, "olap_ms_p50", eight, 50}, {ph.layer, "olap_ms_p95", eight, 95},
	} {
		v, err := percentile(p.xs, p.pct)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		p.m.set(p.name, v, "ms")
	}
	return nil
}
