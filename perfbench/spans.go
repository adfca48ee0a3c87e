package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"crossbfs/internal/obs"
	"crossbfs/internal/xmath"
)

// span is one traced interval: a call the benchmark made into a layer,
// or a level the engine reported. Spans of one operation share group
// (a request index or a TraversalID); parent indexes the enclosing
// span in the tracer, -1 for none.
type span struct {
	name   string
	lane   int
	group  uint64
	parent int
	iv     interval
	args   map[string]any
}

// tracer keeps spans in memory, nanoseconds since its epoch, and
// writes them as Chrome trace-event JSON when the run ends, the format
// the repo's obs traces use, so Perfetto opens both side by side.
type tracer struct {
	epoch time.Time
	lanes map[int]string
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), lanes: map[int]string{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records s and returns its index, the parent handle of its
// children. A nil tracer records nothing, which is the untraced run.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// mark is an open span; it times its call even without a tracer.
type mark struct {
	t     *tracer
	idx   int
	start time.Time
}

// begin opens a span named name on lane under parent.
func (t *tracer) begin(name string, lane, parent int) mark {
	m := mark{t: t, start: time.Now()}
	m.idx = t.add(span{name: name, lane: lane, parent: parent})
	return m
}

// end closes the span and returns its duration.
func (m mark) end() time.Duration {
	end := time.Now()
	if m.t != nil {
		m.t.spans[m.idx].iv = interval{m.t.ns(m.start), m.t.ns(end)}
	}
	return end.Sub(m.start)
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans at path as a Chrome trace (microseconds).
func (t *tracer) write(path string) error {
	evs := make([]traceEvent, 0, len(t.spans)+len(t.lanes))
	for lane, name := range t.lanes {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane, Args: map[string]any{"name": name}})
	}
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.parent, "group": s.group}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane, Args: args,
			TS: float64(s.iv.start) / 1e3, Dur: float64(s.iv.end-s.iv.start) / 1e3,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// level is one expansion step as the engine reported it.
type level struct {
	start            time.Time
	dur              time.Duration
	dir              obs.Direction
	discovered, scan int64
}

// traversal is one engine run reassembled from its events.
type traversal struct {
	id         uint64
	root       int32
	start, end time.Time
	levels     []level
}

// eventRecorder is the obs.Recorder the traced run attaches to the
// engine (batches) or to serve.Config.Recorder (serving). It rebuilds
// each traversal from the start, level and end events the engine
// already emits and counts every event it receives.
type eventRecorder struct {
	mu     sync.Mutex
	open   map[uint64]*traversal
	done   []*traversal
	events int64
}

func newEventRecorder() *eventRecorder {
	return &eventRecorder{open: map[uint64]*traversal{}}
}

// Event implements obs.Recorder.
func (r *eventRecorder) Event(e obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events++
	switch e.Kind {
	case obs.KindTraversalStart:
		r.open[e.TraversalID] = &traversal{id: e.TraversalID, root: e.Root, start: e.Wall}
	case obs.KindLevel:
		if t := r.open[e.TraversalID]; t != nil {
			t.levels = append(t.levels, level{start: e.Wall, dur: e.WallDur, dir: e.Dir, discovered: e.Discovered, scan: e.Scans})
		}
	case obs.KindTraversalEnd:
		if t := r.open[e.TraversalID]; t != nil {
			t.end = e.Wall
			delete(r.open, e.TraversalID)
			r.done = append(r.done, t)
		}
	}
}

// take returns the traversals finished since the last call.
func (r *eventRecorder) take() []*traversal {
	r.mu.Lock()
	defer r.mu.Unlock()
	done := r.done
	r.done = nil
	return done
}

func (r *eventRecorder) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// levelStats folds traversals into the bfs layer's per-layer metrics.
type levelStats struct {
	runMS, tdMS, buMS, selfMS, levels, buLevels []float64
	levelUS                                     []float64
	buFound, buScans                            int64
}

// add folds one traversal whose run span (the call as the caller
// timed it, on tr's clock) is run, and records its level spans in tr
// under parent unless parent is negative.
func (s *levelStats) add(t *traversal, run interval, tr *tracer, lane, parent int) {
	var td, bu time.Duration
	var bus int
	children := make([]interval, len(t.levels))
	for i, l := range t.levels {
		if l.dir == obs.BottomUp {
			bu += l.dur
			bus++
			s.buFound += l.discovered
			s.buScans += l.scan
		} else {
			td += l.dur
		}
		s.levelUS = append(s.levelUS, float64(l.dur)/1e3)
		children[i] = interval{tr.ns(l.start), tr.ns(l.start.Add(l.dur))}
		if parent >= 0 {
			name := "bfs.level.td"
			if l.dir == obs.BottomUp {
				name = "bfs.level.bu"
			}
			tr.add(span{name: name, lane: lane, group: t.id, parent: parent, iv: children[i],
				args: map[string]any{"discovered": l.discovered, "scans": l.scan}})
		}
	}
	s.runMS = append(s.runMS, float64(run.end-run.start)/1e6)
	s.selfMS = append(s.selfMS, float64(selfTime(run, children))/1e6)
	s.tdMS = append(s.tdMS, td.Seconds()*1e3)
	s.buMS = append(s.buMS, bu.Seconds()*1e3)
	s.levels = append(s.levels, float64(len(t.levels)))
	s.buLevels = append(s.buLevels, float64(bus))
}

// metrics reports the bfs.* level metrics: per-traversal medians, the
// level-span median and the bottom-up discovery yield.
func (s *levelStats) metrics(m metrics) error {
	p50, err := percentile(s.runMS, 50)
	if err != nil {
		return err
	}
	lvl, err := percentile(s.levelUS, 50)
	if err != nil {
		return err
	}
	m.set("bfs.run_ms_p50", p50, "ms")
	m.set("bfs.level_us_p50", lvl, "us")
	m.set("bfs.td_ms", xmath.Median(s.tdMS), "ms")
	m.set("bfs.bu_ms", xmath.Median(s.buMS), "ms")
	m.set("bfs.run_self_ms", xmath.Median(s.selfMS), "ms")
	m.set("bfs.levels", xmath.Median(s.levels), "count")
	m.set("bfs.bu_levels", xmath.Median(s.buLevels), "count")
	found := 0.0
	if s.buScans > 0 {
		found = float64(s.buFound) / float64(s.buScans)
	}
	m.set("bfs.bu_found_per_scan", found, "ratio")
	return nil
}
