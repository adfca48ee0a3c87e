package bfs

import (
	"time"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// tobs bundles the per-traversal telemetry state every engine shares:
// the recorder, the traversal's process-unique ID, and its identity
// fields, so emission sites stay one call. The zero value is inert
// (live == false), which lets engines register the end() defer before
// they know whether a recorder is attached.
//
// Hot-path discipline: when no live recorder is attached, observeStart
// does no clock read and draws no ID, and every event/end call is a
// branch on a bool — the Nop path is identical to no instrumentation
// (gated by TestRunAllocsSteadyState and BenchmarkRunNopRecorder).
type tobs struct {
	rec   obs.Recorder
	live  bool
	id    uint64
	root  int32
	label string
	start time.Time
}

// observeStart opens a traversal's event group: it takes the
// TraversalID of an obs.WithTraversalID wrapper, or draws one when rec
// is not such a wrapper, emits KindTraversalStart (carrying the graph
// totals and whether the workspace was recycled), and returns the
// handle the runner threads through its level loop.
func observeStart(rec obs.Recorder, g *graph.CSR, root int32, label string, reused bool) tobs {
	o := tobs{rec: rec, live: obs.Live(rec), root: root, label: label}
	if !o.live {
		return o
	}
	if o.id = obs.TraversalIDOf(rec); o.id == 0 {
		o.id = obs.NextTraversalID()
	}
	o.start = time.Now()
	o.rec.Event(obs.Event{
		Kind:             obs.KindTraversalStart,
		TraversalID:      o.id,
		Root:             root,
		Engine:           label,
		Dir:              obs.DirNone,
		FrontierVertices: int64(g.NumVertices()),
		FrontierEdges:    g.NumEdges(),
		Reused:           reused,
		Wall:             o.start,
	})
	return o
}

// event stamps the traversal's identity onto e and emits it. Callers
// must check o.live first so the event struct is never built on the
// Nop path.
func (o *tobs) event(e obs.Event) {
	e.TraversalID = o.id
	e.Root = o.root
	e.Engine = o.label
	o.rec.Event(e)
}

// end closes the event group with KindTraversalEnd: the reachable
// vertex and traversed edge totals on success, the error string on
// failure (including contained panics — engines register end via a
// defer that runs after recoverToError).
func (o *tobs) end(r *Result, err error) {
	if !o.live {
		return
	}
	e := obs.Event{
		Kind:        obs.KindTraversalEnd,
		TraversalID: o.id,
		Root:        o.root,
		Engine:      o.label,
		Dir:         obs.DirNone,
		Wall:        time.Now(),
		WallDur:     time.Since(o.start),
	}
	if err != nil {
		e.Detail = err.Error()
	} else if r != nil {
		e.Discovered = r.VisitedCount
		e.Scans = r.TraversedEdges
	}
	o.rec.Event(e)
}
