package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a miniature cross-architecture run: one real
// traversal (TD, TD, BU, TD — two switches), its RunMany dispatch
// bracket, and one simulated plan timeline with a handoff and a retry.
// Wall times are fixed offsets from an arbitrary epoch so the encoded
// file is byte-stable.
func goldenEvents() []Event {
	at := func(us int64) time.Time { return time.UnixMicro(1700000000000000 + us) }
	return []Event{
		{Kind: KindRootDispatch, Root: 5, Index: 0, Dir: DirNone, Workers: 2, Wall: at(0)},
		{Kind: KindTraversalStart, TraversalID: 1, Root: 5, Engine: "hybrid(64,64)", Dir: DirNone,
			FrontierVertices: 1024, FrontierEdges: 16384, Reused: true, Wall: at(3)},
		{Kind: KindLevel, TraversalID: 1, Root: 5, Engine: "hybrid(64,64)", Step: 1, Dir: TopDown,
			FrontierVertices: 1, FrontierEdges: 12, Discovered: 12, Unvisited: 1023,
			Grains: 1, Workers: 1, Wall: at(5), WallDur: 40 * time.Microsecond},
		{Kind: KindLevel, TraversalID: 1, Root: 5, Engine: "hybrid(64,64)", Step: 2, Dir: TopDown,
			FrontierVertices: 12, FrontierEdges: 300, Discovered: 200, Unvisited: 1011,
			Grains: 1, Workers: 1, Wall: at(50), WallDur: 60 * time.Microsecond},
		{Kind: KindSwitch, TraversalID: 1, Root: 5, Engine: "hybrid(64,64)", Step: 3, Dir: BottomUp, Wall: at(115)},
		{Kind: KindLevel, TraversalID: 1, Root: 5, Engine: "hybrid(64,64)", Step: 3, Dir: BottomUp,
			FrontierVertices: 200, FrontierEdges: 9000, Discovered: 700, Unvisited: 811,
			Scans: 2100, Grains: 1, Workers: 1, Wall: at(115), WallDur: 30 * time.Microsecond},
		{Kind: KindSwitch, TraversalID: 1, Root: 5, Engine: "hybrid(64,64)", Step: 4, Dir: TopDown, Wall: at(150)},
		{Kind: KindLevel, TraversalID: 1, Root: 5, Engine: "hybrid(64,64)", Step: 4, Dir: TopDown,
			FrontierVertices: 700, FrontierEdges: 4000, Discovered: 0, Unvisited: 111,
			Grains: 3, Workers: 3, Wall: at(150), WallDur: 25 * time.Microsecond},
		{Kind: KindTraversalEnd, TraversalID: 1, Root: 5, Engine: "hybrid(64,64)", Dir: DirNone,
			Discovered: 913, Scans: 16000, Wall: at(180), WallDur: 177 * time.Microsecond},
		{Kind: KindRootDone, Root: 5, Index: 0, Dir: DirNone, Workers: 2, Wall: at(185), WallDur: 185 * time.Microsecond},

		{Kind: KindPlanStart, TraversalID: 2, Root: 5, Engine: "CPUTD+GPUCB", Dir: DirNone},
		{Kind: KindSimStep, TraversalID: 2, Root: 5, Engine: "CPUTD+GPUCB", Step: 1, Dir: TopDown,
			Device: "SandyBridge-8c", FrontierVertices: 1, FrontierEdges: 12, Discovered: 12,
			Unvisited: 1023, Scans: 15000, SimStart: 0, SimDur: 0.0007},
		{Kind: KindSimStep, TraversalID: 2, Root: 5, Engine: "CPUTD+GPUCB", Step: 2, Dir: TopDown,
			Device: "SandyBridge-8c", FrontierVertices: 12, FrontierEdges: 300, Discovered: 200,
			Unvisited: 1011, Scans: 14000, SimStart: 0.0007, SimDur: 0.0009},
		{Kind: KindRetry, TraversalID: 2, Root: 5, Engine: "CPUTD+GPUCB", Step: 3, Dir: DirNone,
			Device: "KeplerK20x", Detail: "retry: transfer succeeded after 1 retries", SimStart: 0.0016},
		{Kind: KindHandoff, TraversalID: 2, Root: 5, Engine: "CPUTD+GPUCB", Step: 3, Dir: DirNone,
			From: "SandyBridge-8c", Device: "KeplerK20x", Bytes: 2048, SimStart: 0.0016, SimDur: 0.0004},
		{Kind: KindSimStep, TraversalID: 2, Root: 5, Engine: "CPUTD+GPUCB", Step: 3, Dir: BottomUp,
			Device: "KeplerK20x", FrontierVertices: 200, FrontierEdges: 9000, Discovered: 700,
			Unvisited: 811, Scans: 2100, SimStart: 0.002, SimDur: 0.0002},
		{Kind: KindSimStep, TraversalID: 2, Root: 5, Engine: "CPUTD+GPUCB", Step: 4, Dir: TopDown,
			Device: "KeplerK20x", FrontierVertices: 700, FrontierEdges: 4000, Discovered: 0,
			Unvisited: 111, Scans: 900, SimStart: 0.0022, SimDur: 0.0001},
		{Kind: KindPlanEnd, TraversalID: 2, Root: 5, Engine: "CPUTD+GPUCB", Dir: DirNone,
			SimStart: 0.0023, SimDur: 0.0023},

		// One sharded traversal (2 ranks, TD then BU): the collective
		// decision instants on the traversal lane, paired exchange
		// events and ghost updates on the per-rank lanes.
		{Kind: KindTraversalStart, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Dir: DirNone,
			FrontierVertices: 1024, FrontierEdges: 16384, Wall: at(200)},
		{Kind: KindCollective, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 1, Dir: TopDown,
			FrontierVertices: 1, FrontierEdges: 9, Unvisited: 1023, Workers: 2, Wall: at(205)},
		{Kind: KindExchangeStart, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 1, Dir: TopDown,
			Index: 0, Workers: 2, Wall: at(210)},
		{Kind: KindExchangeStart, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 1, Dir: TopDown,
			Index: 1, Workers: 2, Wall: at(211)},
		{Kind: KindExchangeEnd, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 1, Dir: TopDown,
			Index: 0, Bytes: 0, Wall: at(214), WallDur: 4 * time.Microsecond},
		{Kind: KindExchangeEnd, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 1, Dir: TopDown,
			Index: 1, Bytes: 96, Wall: at(215), WallDur: 4 * time.Microsecond},
		{Kind: KindGhostUpdate, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 1, Dir: DirNone,
			Index: 0, Scans: 3, Discovered: 2, Bytes: 24, Wall: at(216)},
		{Kind: KindGhostUpdate, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 1, Dir: DirNone,
			Index: 1, Scans: 1, Discovered: 1, Bytes: 8, Wall: at(217)},
		{Kind: KindLevel, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 1, Dir: TopDown,
			FrontierVertices: 1, FrontierEdges: 9, Discovered: 9, Unvisited: 1023,
			Grains: 2, Workers: 2, Wall: at(205), WallDur: 15 * time.Microsecond},
		{Kind: KindSwitch, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 2, Dir: BottomUp, Wall: at(225)},
		{Kind: KindCollective, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 2, Dir: BottomUp,
			FrontierVertices: 9, FrontierEdges: 820, Unvisited: 1014, Workers: 2, Wall: at(225)},
		{Kind: KindExchangeStart, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 2, Dir: BottomUp,
			Index: 0, Workers: 2, Wall: at(227)},
		{Kind: KindExchangeStart, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 2, Dir: BottomUp,
			Index: 1, Workers: 2, Wall: at(228)},
		{Kind: KindExchangeEnd, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 2, Dir: BottomUp,
			Index: 0, Bytes: 40, Wall: at(230), WallDur: 3 * time.Microsecond},
		{Kind: KindExchangeEnd, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 2, Dir: BottomUp,
			Index: 1, Bytes: 36, Wall: at(231), WallDur: 3 * time.Microsecond},
		{Kind: KindLevel, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Step: 2, Dir: BottomUp,
			FrontierVertices: 9, FrontierEdges: 820, Discovered: 1014, Unvisited: 1014,
			Scans: 3000, Grains: 2, Workers: 2, Wall: at(225), WallDur: 20 * time.Microsecond},
		{Kind: KindTraversalEnd, TraversalID: 3, Root: 9, Engine: "sharded(2,hybrid(14,24))", Dir: DirNone,
			Discovered: 1024, Scans: 16384, Wall: at(250), WallDur: 50 * time.Microsecond},
	}
}

// TestTraceWriterGolden pins the exact bytes of the Chrome trace JSON:
// field order, lane assignment, metadata placement, timestamp
// arithmetic. If an intentional schema change lands, regenerate with
// `go test ./internal/obs -run Golden -update` and review the diff —
// OBSERVABILITY.md documents this file as the schema reference.
func TestTraceWriterGolden(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, e := range goldenEvents() {
		tw.Event(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace JSON drifted from golden file %s\ngot:\n%s", golden, got)
	}
}

func TestTraceWriterOutputValidates(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, e := range goldenEvents() {
		tw.Event(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateTrace rejected TraceWriter output: %v", err)
	}
	if s.Levels != 6 || s.SimSteps != 4 || s.Handoffs != 1 || s.Switches != 3 || s.Faults != 1 {
		t.Errorf("summary = %+v, want 6 levels, 4 sim steps, 1 handoff, 3 switches, 1 fault", s)
	}
	if s.Exchanges != 4 || s.Collectives != 2 || s.GhostUpdates != 2 {
		t.Errorf("summary = %+v, want 4 exchanges, 2 collectives, 2 ghost updates", s)
	}
	if s.Processes[1] != "host" || s.Processes[2] != "interconnect" {
		t.Errorf("reserved lanes missing: %v", s.Processes)
	}

	// The per-level record must reconstruct each traversal's exact
	// switch schedule — the acceptance criterion bfsrun -trace and
	// make trace-smoke rely on. The hybrid traversal ran TD,TD,BU,TD
	// and the sharded one TD,BU; each is its own lane.
	wantByLen := map[int][]string{
		4: {"TD", "TD", "BU", "TD"},
		2: {"TD", "BU"},
	}
	if len(s.LevelDirs) != 2 {
		t.Fatalf("%d traversal lanes, want 2", len(s.LevelDirs))
	}
	for _, tid := range TimelineIDs(s.LevelDirs) {
		dirs := s.LevelDirs[tid]
		wantDirs, ok := wantByLen[len(dirs)]
		if !ok {
			t.Fatalf("tid %d has %d levels, want 4 or 2", tid, len(dirs))
		}
		for i := range dirs {
			if dirs[i] != wantDirs[i] {
				t.Errorf("tid %d level %d direction %s, want %s", tid, i+1, dirs[i], wantDirs[i])
			}
		}
	}
	wantDirs := wantByLen[4]
	if got := SwitchSteps(wantDirs); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("SwitchSteps = %v, want [3 4]", got)
	}
	for _, tid := range TimelineIDs(s.SimDirs) {
		if got := SwitchSteps(s.SimDirs[tid]); len(got) != 2 || got[0] != 3 || got[1] != 4 {
			t.Errorf("sim timeline %d switch steps = %v, want [3 4]", tid, got)
		}
	}
}

func TestTraceWriterCloseIdempotentAndDropsLate(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Event(Event{Kind: KindLevel, TraversalID: 9, Step: 1, Dir: TopDown, FrontierVertices: 1})
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	n := buf.Len()
	tw.Event(Event{Kind: KindLevel, TraversalID: 9, Step: 2, Dir: TopDown})
	if err := tw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if buf.Len() != n {
		t.Error("events after Close leaked into the output")
	}
	if _, err := ValidateTrace(buf.Bytes()); err != nil {
		t.Errorf("closed trace invalid: %v", err)
	}
}

// TestTraceWriterEpochIsEarliestStamp: concurrent emitters stamp Wall
// before they hand an event over, so a writer can receive root 2's
// dispatch, stamped later, before root 1's. The trace's time origin
// is the earliest stamp, so no event gets a negative timestamp.
func TestTraceWriterEpochIsEarliestStamp(t *testing.T) {
	at := func(us int64) time.Time { return time.UnixMicro(1700000000000000 + us) }
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Event(Event{Kind: KindRootDispatch, TraversalID: 2, Root: 2, Index: 1, Dir: DirNone, Workers: 1, Wall: at(10)})
	tw.Event(Event{Kind: KindRootDispatch, TraversalID: 1, Root: 1, Index: 0, Dir: DirNone, Workers: 0, Wall: at(0)})
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace of out-of-order stamps invalid: %v", err)
	}
	for _, want := range []string{`"name":"dispatch root 2","cat":"dispatch","ph":"i","ts":10,`, `"name":"dispatch root 1","cat":"dispatch","ph":"i","ts":0,`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace lacks %s\n%s", want, buf.Bytes())
		}
	}
}

func TestTraceWriterEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTraceWriter(&buf).Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	if s.Events != 0 {
		t.Errorf("empty trace has %d events", s.Events)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":           `{]`,
		"no traceEvents":     `{"foo": []}`,
		"missing name":       `{"traceEvents":[{"ph":"i","ts":0,"pid":1,"tid":1}]}`,
		"unknown phase":      `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":1,"tid":1}]}`,
		"missing ts":         `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":1}]}`,
		"missing pid":        `{"traceEvents":[{"name":"x","ph":"i","ts":0,"tid":1}]}`,
		"X without dur":      `{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}`,
		"level bad dir":      `{"traceEvents":[{"name":"x","cat":"level","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"step":1,"dir":"sideways"}}]}`,
		"level no step":      `{"traceEvents":[{"name":"x","cat":"level","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"dir":"TD"}}]}`,
		"handoff no bytes":   `{"traceEvents":[{"name":"x","cat":"handoff","ph":"X","ts":0,"dur":1,"pid":2,"tid":1,"args":{}}]}`,
		"exchange no bytes":  `{"traceEvents":[{"name":"x","cat":"exchange","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"rank":0}}]}`,
		"exchange no rank":   `{"traceEvents":[{"name":"x","cat":"exchange","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"bytes":8}}]}`,
		"collective no step": `{"traceEvents":[{"name":"x","cat":"collective","ph":"i","ts":0,"pid":1,"tid":1,"args":{"dir":"TD"}}]}`,
		"collective bad dir": `{"traceEvents":[{"name":"x","cat":"collective","ph":"i","ts":0,"pid":1,"tid":1,"args":{"step":1,"dir":"sideways"}}]}`,
		"ghost no rank":      `{"traceEvents":[{"name":"x","cat":"ghost","ph":"i","ts":0,"pid":1,"tid":1,"args":{"step":1}}]}`,
		"step gap": `{"traceEvents":[
			{"name":"a","cat":"level","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"step":1,"dir":"TD"}},
			{"name":"b","cat":"level","ph":"X","ts":2,"dur":1,"pid":1,"tid":1,"args":{"step":3,"dir":"TD"}}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateTrace([]byte(data)); err == nil {
			t.Errorf("ValidateTrace accepted %s", name)
		}
	}
}
