package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file holds the Chrome trace-event encoder behind TraceWriter
// (and so behind Ring.WriteTrace, which replays into one): laneState
// translates each Event into traceEvents, keeps the lane bookkeeping
// (pid/tid registration, plan names, thread_name metadata, the wall
// epoch) and frames the JSON document around them.

// Reserved lane pids.
const (
	hostPid = 1
	linkPid = 2
)

// traceEvent is one element of the trace file's traceEvents array.
// Field order is fixed (and args maps marshal with sorted keys), so a
// given event sequence always serializes identically — the property
// the golden-file test pins.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// laneState owns the Event -> traceEvent translation, every piece of
// registration state behind it and the document it encodes into. It is
// not safe for concurrent use; TraceWriter.Close runs it under the
// writer's mutex.
type laneState struct {
	// Wall epoch, so the timeline starts at ts 0 regardless of when
	// the process began: the run's earliest wall instant, set before
	// the first event is encoded.
	epoch time.Time
	// doc is the JSON document so far. Registration metadata
	// (process_name, thread_name) lands in it interleaved with the
	// events that first need it; that ordering is part of the
	// golden-file contract.
	doc bytes.Buffer

	pids     map[string]int  // lane name -> pid
	tids     map[uint64]int  // TraversalID -> tid
	rankTids map[rankKey]int // (TraversalID, rank) -> tid (sharded lanes)
	nextPid  int
	nextTid  int
	planName map[uint64]string // TraversalID -> plan name (simulated)
	named    map[[2]int]bool   // (pid,tid) pairs with thread_name emitted
}

func newLaneState(epoch time.Time) *laneState {
	return &laneState{
		epoch:    epoch,
		pids:     map[string]int{"host": hostPid, "interconnect": linkPid},
		tids:     make(map[uint64]int),
		rankTids: make(map[rankKey]int),
		nextPid:  linkPid + 1,
		nextTid:  1,
		planName: make(map[uint64]string),
		named:    make(map[[2]int]bool),
	}
}

// event translates one telemetry event into zero or more traceEvents
// appended to the document.
func (t *laneState) event(e Event) {
	switch e.Kind {
	case KindTraversalStart:
		tid := t.tid(e.TraversalID)
		label := e.Engine
		if label == "" {
			label = "bfs"
		}
		t.threadName(hostPid, tid, fmt.Sprintf("root %d (%s)", e.Root, label))
		t.emit(traceEvent{
			Name: "traversal start", Cat: "traversal", Ph: "i", Scope: "t",
			TS: t.wallTS(e.Wall), Pid: hostPid, Tid: tid,
			Args: map[string]any{
				"root": e.Root, "engine": label,
				"vertices": e.FrontierVertices, "edges": e.FrontierEdges,
				"reusedWorkspace": e.Reused,
			},
		})
	case KindLevel:
		dur := float64(e.WallDur) / float64(time.Microsecond)
		t.emit(traceEvent{
			Name: fmt.Sprintf("L%d %s", e.Step, e.Dir), Cat: "level", Ph: "X",
			TS: t.wallTS(e.Wall), Dur: &dur, Pid: hostPid, Tid: t.tid(e.TraversalID),
			Args: map[string]any{
				"step": e.Step, "dir": e.Dir.String(),
				"frontierVertices": e.FrontierVertices, "frontierEdges": e.FrontierEdges,
				"discovered": e.Discovered, "unvisited": e.Unvisited,
				"scans": e.Scans, "grains": e.Grains, "workers": e.Workers,
			},
		})
	case KindSwitch:
		t.emit(traceEvent{
			Name: "switch to " + e.Dir.String(), Cat: "switch", Ph: "i", Scope: "t",
			TS: t.wallTS(e.Wall), Pid: hostPid, Tid: t.tid(e.TraversalID),
			Args: map[string]any{"step": e.Step, "dir": e.Dir.String()},
		})
	case KindTraversalEnd:
		args := map[string]any{
			"reachable": e.Discovered, "traversedEdges": e.Scans,
			"wallSeconds": e.WallDur.Seconds(),
		}
		if e.Detail != "" {
			args["error"] = e.Detail
		}
		t.emit(traceEvent{
			Name: "traversal end", Cat: "traversal", Ph: "i", Scope: "t",
			TS: t.wallTS(e.Wall), Pid: hostPid, Tid: t.tid(e.TraversalID),
			Args: args,
		})
	case KindRootDispatch, KindRootDone:
		name := "dispatch"
		args := map[string]any{"index": e.Index, "root": e.Root}
		if e.Kind == KindRootDone {
			name = "done"
			args["wallSeconds"] = e.WallDur.Seconds()
			if e.Detail != "" {
				args["error"] = e.Detail
			}
		}
		tid := int(e.Workers) + 1 // dispatch lane per RunMany worker
		t.threadName(hostPid, -tid, fmt.Sprintf("dispatch worker %d", e.Workers))
		t.emit(traceEvent{
			Name: fmt.Sprintf("%s root %d", name, e.Root), Cat: "dispatch",
			Ph: "i", Scope: "t", TS: t.wallTS(e.Wall), Pid: hostPid, Tid: -tid,
			Args: args,
		})
	case KindPlanStart:
		t.planName[e.TraversalID] = e.Engine
		t.tid(e.TraversalID)
	case KindSimStep:
		dur := e.SimDur * 1e6
		pid, tid := t.pid(e.Device), t.tid(e.TraversalID)
		t.threadName(pid, tid, t.planLabel(e.TraversalID))
		t.emit(traceEvent{
			Name: fmt.Sprintf("L%d %s", e.Step, e.Dir), Cat: "sim", Ph: "X",
			TS: e.SimStart * 1e6, Dur: &dur, Pid: pid, Tid: tid,
			Args: map[string]any{
				"step": e.Step, "dir": e.Dir.String(),
				"device": e.Device, "plan": t.planLabel(e.TraversalID),
				"kernelSeconds": e.SimDur,
			},
		})
	case KindHandoff:
		dur := e.SimDur * 1e6
		tid := t.tid(e.TraversalID)
		t.threadName(linkPid, tid, t.planLabel(e.TraversalID))
		t.emit(traceEvent{
			Name: e.From + " to " + e.Device, Cat: "handoff", Ph: "X",
			TS: e.SimStart * 1e6, Dur: &dur, Pid: linkPid, Tid: tid,
			Args: map[string]any{
				"step": e.Step, "from": e.From, "to": e.Device,
				"bytes": e.Bytes, "plan": t.planLabel(e.TraversalID),
				"linkSeconds": e.SimDur,
			},
		})
	case KindPlanEnd:
		pid, tid := linkPid, t.tid(e.TraversalID)
		t.emit(traceEvent{
			Name: "plan end", Cat: "sim", Ph: "i", Scope: "t",
			TS: e.SimStart * 1e6, Pid: pid, Tid: tid,
			Args: map[string]any{
				"plan": t.planLabel(e.TraversalID), "totalSeconds": e.SimDur,
			},
		})
	case KindRetry, KindReplan, KindFault:
		pid, tid := t.pid(e.Device), t.tid(e.TraversalID)
		t.threadName(pid, tid, t.planLabel(e.TraversalID))
		t.emit(traceEvent{
			Name: e.Kind.String(), Cat: "fault", Ph: "i", Scope: "g",
			TS: e.SimStart * 1e6, Pid: pid, Tid: tid,
			Args: map[string]any{
				"step": e.Step, "device": e.Device, "detail": e.Detail,
				"plan": t.planLabel(e.TraversalID),
			},
		})
	case KindExchangeStart:
		tid := t.rankTid(e.TraversalID, e.Index, e.Root)
		t.emit(traceEvent{
			Name: fmt.Sprintf("L%d exchange start", e.Step), Cat: "exchange",
			Ph: "i", Scope: "t", TS: t.wallTS(e.Wall), Pid: hostPid, Tid: tid,
			Args: map[string]any{
				"step": e.Step, "dir": e.Dir.String(),
				"rank": e.Index, "ranks": e.Workers,
			},
		})
	case KindExchangeEnd:
		dur := float64(e.WallDur) / float64(time.Microsecond)
		tid := t.rankTid(e.TraversalID, e.Index, e.Root)
		t.emit(traceEvent{
			Name: fmt.Sprintf("L%d exchange", e.Step), Cat: "exchange", Ph: "X",
			TS: t.wallTS(e.Wall), Dur: &dur, Pid: hostPid, Tid: tid,
			Args: map[string]any{
				"step": e.Step, "dir": e.Dir.String(),
				"rank": e.Index, "bytes": e.Bytes,
			},
		})
	case KindCollective:
		// The collective is a traversal-wide decision, so it rides the
		// traversal's own lane, between the level slices it separates.
		t.emit(traceEvent{
			Name: fmt.Sprintf("collective L%d %s", e.Step, e.Dir), Cat: "collective",
			Ph: "i", Scope: "t", TS: t.wallTS(e.Wall), Pid: hostPid, Tid: t.tid(e.TraversalID),
			Args: map[string]any{
				"step": e.Step, "dir": e.Dir.String(),
				"frontierVertices": e.FrontierVertices, "frontierEdges": e.FrontierEdges,
				"unvisited": e.Unvisited, "ranks": e.Workers,
			},
		})
	case KindGhostUpdate:
		tid := t.rankTid(e.TraversalID, e.Index, e.Root)
		t.emit(traceEvent{
			Name: fmt.Sprintf("L%d ghosts", e.Step), Cat: "ghost",
			Ph: "i", Scope: "t", TS: t.wallTS(e.Wall), Pid: hostPid, Tid: tid,
			Args: map[string]any{
				"step": e.Step, "rank": e.Index,
				"received": e.Scans, "applied": e.Discovered, "bytes": e.Bytes,
			},
		})
	case KindRankLost:
		// Losing a rank reshapes the whole traversal, so like the
		// collective it rides the traversal's own lane.
		t.emit(traceEvent{
			Name: fmt.Sprintf("rank %d lost", e.Index), Cat: "recover",
			Ph: "i", Scope: "g", TS: t.wallTS(e.Wall), Pid: hostPid, Tid: t.tid(e.TraversalID),
			Args: map[string]any{
				"step": e.Step, "rank": e.Index,
				"survivors": e.Workers, "detail": e.Detail,
			},
		})
	case KindRecoverStart:
		tid := t.rankTid(e.TraversalID, e.Index, e.Root)
		t.emit(traceEvent{
			Name: fmt.Sprintf("L%d recover start", e.Step), Cat: "recover",
			Ph: "i", Scope: "t", TS: t.wallTS(e.Wall), Pid: hostPid, Tid: tid,
			Args: map[string]any{"step": e.Step, "rank": e.Index},
		})
	case KindRecoverEnd:
		dur := float64(e.WallDur) / float64(time.Microsecond)
		tid := t.rankTid(e.TraversalID, e.Index, e.Root)
		t.emit(traceEvent{
			Name: fmt.Sprintf("L%d recover", e.Step), Cat: "recover", Ph: "X",
			TS: t.wallTS(e.Wall), Dur: &dur, Pid: hostPid, Tid: tid,
			Args: map[string]any{
				"step": e.Step, "rank": e.Index, "restored": e.Scans,
			},
		})
	case KindCheckpoint:
		tid := t.rankTid(e.TraversalID, e.Index, e.Root)
		t.emit(traceEvent{
			Name: fmt.Sprintf("L%d checkpoint", e.Step), Cat: "checkpoint",
			Ph: "i", Scope: "t", TS: t.wallTS(e.Wall), Pid: hostPid, Tid: tid,
			Args: map[string]any{
				"step": e.Step, "rank": e.Index,
				"segments": e.Grains, "bytes": e.Bytes,
			},
		})
	}
}

// rankKey identifies one rank lane of one sharded traversal.
type rankKey struct {
	id   uint64
	rank int32
}

// rankTid returns the lane for one rank of a sharded traversal,
// registering its thread_name on first use. Rank lanes live on the
// host pid next to the traversal's own lane.
func (t *laneState) rankTid(id uint64, rank, root int32) int {
	key := rankKey{id, rank}
	if tid, ok := t.rankTids[key]; ok {
		return tid
	}
	tid := t.nextTid
	t.nextTid++
	t.rankTids[key] = tid
	t.threadName(hostPid, tid, fmt.Sprintf("rank %d (root %d)", rank, root))
	return tid
}

// planLabel names a simulated timeline for display.
func (t *laneState) planLabel(id uint64) string {
	if name := t.planName[id]; name != "" {
		return name
	}
	return "plan"
}

// wallTS converts a wall instant to trace microseconds since the
// epoch. Zero instants (events from emitters that had no clock in
// hand) map to the epoch.
func (t *laneState) wallTS(w time.Time) float64 {
	if w.IsZero() {
		return 0
	}
	return float64(w.Sub(t.epoch)) / float64(time.Microsecond)
}

// pid returns the lane for a device name, registering it (plus its
// process_name metadata) on first use.
func (t *laneState) pid(device string) int {
	if device == "" {
		device = "host"
	}
	if p, ok := t.pids[device]; ok {
		return p
	}
	p := t.nextPid
	t.nextPid++
	t.pids[device] = p
	t.emit(traceEvent{
		Name: "process_name", Ph: "M", Pid: p, Tid: 0,
		Args: map[string]any{"name": device},
	})
	t.emit(traceEvent{
		Name: "process_sort_index", Ph: "M", Pid: p, Tid: 0,
		Args: map[string]any{"sort_index": p},
	})
	return p
}

// tid returns the thread lane for a traversal/timeline ID.
func (t *laneState) tid(id uint64) int {
	if tid, ok := t.tids[id]; ok {
		return tid
	}
	tid := t.nextTid
	t.nextTid++
	t.tids[id] = tid
	return tid
}

// threadName emits thread_name metadata once per (pid, tid) pair.
func (t *laneState) threadName(pid, tid int, name string) {
	key := [2]int{pid, tid}
	if t.named[key] {
		return
	}
	t.named[key] = true
	t.emit(traceEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// emit appends ev to the document with the correct framing: the
// preamble plus the well-known host/interconnect lane metadata before
// the first event, a ",\n" separator before every later one.
func (t *laneState) emit(ev traceEvent) {
	if t.doc.Len() > 0 {
		t.doc.WriteString(",\n")
		writeTraceEvent(&t.doc, ev)
		return
	}
	t.doc.WriteString(`{"traceEvents":[`)
	for _, meta := range []traceEvent{
		{Name: "process_name", Ph: "M", Pid: hostPid, Args: map[string]any{"name": "host"}},
		{Name: "process_sort_index", Ph: "M", Pid: hostPid, Args: map[string]any{"sort_index": hostPid}},
		{Name: "process_name", Ph: "M", Pid: linkPid, Args: map[string]any{"name": "interconnect"}},
		{Name: "process_sort_index", Ph: "M", Pid: linkPid, Args: map[string]any{"sort_index": linkPid}},
	} {
		writeTraceEvent(&t.doc, meta)
		t.doc.WriteString(",\n")
	}
	writeTraceEvent(&t.doc, ev)
}

// finish writes the document epilogue and returns the whole document.
// A document that never saw an event still gets a valid (empty)
// traceEvents array.
func (t *laneState) finish() []byte {
	if t.doc.Len() == 0 {
		t.doc.WriteString(`{"traceEvents":[`)
	}
	t.doc.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return t.doc.Bytes()
}

func writeTraceEvent(buf *bytes.Buffer, ev traceEvent) {
	b, err := json.Marshal(ev)
	if err != nil {
		// traceEvent contains only marshalable fields; a failure here
		// is a programming error worth surfacing loudly in tests, but
		// must not kill a traced production run.
		b = []byte(fmt.Sprintf(`{"name":"encode error","ph":"i","ts":0,"pid":1,"tid":0,"s":"g","args":{"error":%q}}`, err))
	}
	buf.Write(b)
}

// TraceWriter is a Recorder that renders the event stream as Chrome
// trace-event JSON (the catapult "JSON object format"), loadable in
// chrome://tracing and https://ui.perfetto.dev. A whole
// cross-architecture run — CPU top-down levels, the GPU bottom-up
// middle, the GPU top-down tail, the PCIe handoffs between them —
// becomes a timeline with one track group (pid) per device.
//
// Track model (see OBSERVABILITY.md for the full schema):
//
//   - pid 1 "host": real traversals. One thread (tid) per traversal;
//     each expansion step is a complete ("X") slice whose args carry
//     the per-level work counts, with instants for direction switches
//     and traversal start/end. Timestamps are wall-clock microseconds
//     since the earliest wall instant recorded.
//   - pid 2 "interconnect": simulated device-to-device handoffs as
//     slices on the modeled link, args carrying the payload bytes.
//   - pid 3+: one per modeled device (lazily registered under its
//     archsim label). Simulated plan timelines place each priced step
//     on its device's track, sharing one tid per plan run, on the
//     simulated clock (modeled seconds rendered as microseconds).
//
// Events are recorded under one mutex as they arrive, so a TraceWriter
// shared by concurrent RunMany roots never produces interleaved or
// torn JSON. The run is held in memory and encoded, in arrival order,
// on Close. Concurrent emitters stamp Wall before they hand an event
// over, so arrival order is not stamp order; encoding on Close lets
// the time origin be the earliest stamp, and no event lands before
// it. For runs whose length (or lifetime) makes an unbounded buffer
// wrong, a Ring keeps the last few traversals in bounded memory and
// Ring.WriteTrace encodes them the same way.
type TraceWriter struct {
	mu     sync.Mutex
	w      io.Writer
	events []Event
	closed bool
}

// NewTraceWriter returns a TraceWriter that will emit the trace file
// to w when Close is called.
func NewTraceWriter(w io.Writer) *TraceWriter { return &TraceWriter{w: w} }

// Event implements Recorder.
func (t *TraceWriter) Event(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.events = append(t.events, e)
}

// Close encodes the recorded events as the JSON document and writes it
// to the underlying writer. Events arriving after Close are dropped.
// Close is idempotent; only the first call writes.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var epoch time.Time
	for _, e := range t.events {
		if !e.Wall.IsZero() && (epoch.IsZero() || e.Wall.Before(epoch)) {
			epoch = e.Wall
		}
	}
	lanes := newLaneState(epoch)
	for _, e := range t.events {
		lanes.event(e)
	}
	t.events = nil
	_, err := t.w.Write(lanes.finish())
	return err
}
