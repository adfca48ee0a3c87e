package obs_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
)

// lockedTrace serializes a TraceWriter plus a side-channel capture of
// the per-traversal direction sequences, so the test can cross-check
// the trace file against what the recorder actually saw.
//
// TraceWriter is already concurrency-safe; the extra lock only
// protects the test's own map.
type dirCapture struct {
	mu   sync.Mutex
	dirs map[uint64][]obs.Direction
	next obs.Recorder
}

func (c *dirCapture) Event(e obs.Event) {
	if e.Kind == obs.KindLevel {
		c.mu.Lock()
		c.dirs[e.TraversalID] = append(c.dirs[e.TraversalID], e.Dir)
		c.mu.Unlock()
	}
	c.next.Event(e)
}

// TestRunManySharedRecorderTrace drives concurrent RunMany roots into
// ONE shared TraceWriter and asserts the result is a well-formed trace:
// parseable JSON with no torn/interleaved events, per-lane level steps
// strictly sequential, and each lane's direction sequence matching the
// corresponding Result.Directions exactly. Run under -race this is the
// concurrency gate for the whole recorder path (ISSUE 4 satellite).
func TestRunManySharedRecorderTrace(t *testing.T) {
	p := rmat.DefaultParams(10, 8)
	p.Seed = 42
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	roots := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	cap := &dirCapture{dirs: make(map[uint64][]obs.Direction), next: tw}
	reg := obs.NewRegistry()
	metrics := obs.NewRegistryRecorder(reg, "hybrid")

	results, err := runManyCloned(g, roots, bfs.ManyOptions{
		Engine:      bfs.HybridEngine(bfs.DefaultM, bfs.DefaultN, 2),
		Concurrency: 4,
		Recorder:    obs.Multi(cap, metrics),
	})
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("shared-recorder trace is malformed: %v", err)
	}
	if len(s.LevelDirs) != len(roots) {
		t.Fatalf("trace has %d traversal lanes, want %d", len(s.LevelDirs), len(roots))
	}

	// Total level count must agree across all three observers: the
	// engine results, the recorder capture, and the trace file.
	wantLevels := 0
	for _, r := range results {
		wantLevels += r.NumLevels()
	}
	if s.Levels != wantLevels {
		t.Errorf("trace has %d level slices, results have %d levels", s.Levels, wantLevels)
	}
	if got := reg.Snapshot()[`crossbfs_engine_events_total{engine="hybrid",kind="level"}`]; got != float64(wantLevels) {
		t.Errorf("metrics counted %v levels, results have %d", got, wantLevels)
	}

	// Every traversal lane in the trace must replay one root's exact
	// per-level direction sequence. Lane tids are traversal IDs, which
	// are not root-ordered under concurrency, so match as multisets of
	// sequences via the capture side channel.
	wantSeqs := make(map[string]int)
	for _, r := range results {
		wantSeqs[dirKey(r.Directions)]++
	}
	cap.mu.Lock()
	gotSeqs := make(map[string]int)
	for _, dirs := range cap.dirs {
		gotSeqs[dirKey(dirs)]++
	}
	cap.mu.Unlock()
	for k, n := range wantSeqs {
		if gotSeqs[k] != n {
			t.Errorf("direction sequence %q: recorder saw %d traversals, results have %d", k, gotSeqs[k], n)
		}
	}
	traceSeqs := make(map[string]int)
	for _, tid := range obs.TimelineIDs(s.LevelDirs) {
		traceSeqs[strKey(s.LevelDirs[tid])]++
	}
	for _, r := range results {
		k := strKey(dirStrings(r.Directions))
		if traceSeqs[k] == 0 {
			t.Errorf("no trace lane replays direction sequence %q", k)
			continue
		}
		traceSeqs[k]--
	}
}

func dirKey[D interface{ String() string }](dirs []D) string {
	return strKey(dirStrings(dirs))
}

func dirStrings[D interface{ String() string }](dirs []D) []string {
	out := make([]string, len(dirs))
	for i, d := range dirs {
		out[i] = d.String()
	}
	return out
}

func strKey(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + ","
	}
	return out
}

// TestRunManySampledTrace is the sampling acceptance criterion: with an
// obs.Sampler between RunMany and the TraceWriter, every kept traversal
// appears in the trace WHOLE — valid per ValidateTrace, with a
// direction sequence identical to some Result.Directions — and dropped
// traversals leave no events at all.
func TestRunManySampledTrace(t *testing.T) {
	p := rmat.DefaultParams(10, 8)
	p.Seed = 43
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	roots := make([]int32, 32)
	for i := range roots {
		roots[i] = int32(i)
	}
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	cap := &dirCapture{dirs: make(map[uint64][]obs.Direction), next: tw}
	sampler := obs.NewSampler(cap, 3, 2024)

	results, err := runManyCloned(g, roots, bfs.ManyOptions{
		Engine:      bfs.HybridEngine(bfs.DefaultM, bfs.DefaultN, 2),
		Concurrency: 4,
		Recorder:    sampler,
	})
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if sampler.Seen() != uint64(len(roots)) {
		t.Fatalf("sampler saw %d traversal starts, want %d", sampler.Seen(), len(roots))
	}
	kept := int(sampler.Kept())
	if kept == 0 || kept == len(roots) {
		t.Fatalf("sampler kept %d of %d at k=3 — degenerate; pick another seed", kept, len(roots))
	}

	s, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("sampled trace is malformed: %v", err)
	}
	if len(s.LevelDirs) != kept {
		t.Fatalf("trace has %d traversal lanes, sampler kept %d", len(s.LevelDirs), kept)
	}

	// Each kept lane must be a COMPLETE traversal: its direction
	// sequence matches some result's Directions exactly (ValidateTrace
	// already enforced step contiguity, so a partially-kept traversal
	// could not have sneaked through unless it lost a suffix — the
	// sequence-length match closes that hole too).
	wantSeqs := make(map[string]int)
	for _, r := range results {
		wantSeqs[strKey(dirStrings(r.Directions))]++
	}
	for _, tid := range obs.TimelineIDs(s.LevelDirs) {
		k := strKey(s.LevelDirs[tid])
		if wantSeqs[k] == 0 {
			t.Errorf("trace lane %d direction sequence %q matches no result", tid, k)
			continue
		}
		wantSeqs[k]--
	}

	// The capture sits after the sampler: every traversal it saw must
	// be fully kept (start..end contiguous levels), never split.
	cap.mu.Lock()
	defer cap.mu.Unlock()
	if len(cap.dirs) != kept {
		t.Errorf("recorder saw %d traversals, sampler kept %d", len(cap.dirs), kept)
	}
}

// TestRunManyFlightRecorder drives RunMany into an obs.Ring and checks
// the flight-recorder dump: the last N roots, whole, as a valid trace.
func TestRunManyFlightRecorder(t *testing.T) {
	p := rmat.DefaultParams(10, 8)
	p.Seed = 44
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]int32, 16)
	for i := range roots {
		roots[i] = int32(i)
	}
	ring := obs.NewRing(4, 0)
	if _, err := runManyCloned(g, roots, bfs.ManyOptions{
		Engine:      bfs.HybridEngine(bfs.DefaultM, bfs.DefaultN, 2),
		Concurrency: 2,
		Recorder:    ring,
	}); err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	st := ring.Stats()
	if st.Retained != 4 {
		t.Fatalf("ring stats = %+v, want 4 retained", st)
	}
	if st.Open != 0 {
		// Trailing root_done events must merge into their retained
		// group (or retire as stubs), never linger open — an open stub
		// per root would be a leak in a long-running service.
		t.Errorf("ring left %d groups open at rest", st.Open)
	}
	var buf bytes.Buffer
	if err := ring.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("flight-recorder dump invalid: %v", err)
	}
	if len(s.LevelDirs) < 4 {
		t.Errorf("dump has %d complete traversal lanes, want >= 4", len(s.LevelDirs))
	}
}

// TestMetricsSnapshotMidRunMany reads the registry's flat view
// repeatedly WHILE a RunMany batch is recording into it: every
// snapshot must be internally sane (monotonic counters, no torn
// negative values), and the final state must agree with the results.
func TestMetricsSnapshotMidRunMany(t *testing.T) {
	p := rmat.DefaultParams(12, 8)
	p.Seed = 45
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]int32, 24)
	for i := range roots {
		roots[i] = int32(i)
	}
	reg := obs.NewRegistry()
	rec := obs.NewRegistryRecorder(reg, "hybrid")
	done := make(chan []*bfs.Result, 1)
	go func() {
		results, err := runManyCloned(g, roots, bfs.ManyOptions{
			Engine:      bfs.HybridEngine(bfs.DefaultM, bfs.DefaultN, 2),
			Concurrency: 4,
			Recorder:    rec,
		})
		if err != nil {
			t.Errorf("RunMany: %v", err)
		}
		done <- results
	}()

	events := func(kind string) string {
		return `crossbfs_engine_events_total{engine="hybrid",kind="` + kind + `"}`
	}
	traversals, dispatched, rootsDone := events("traversal_start"), events("root_dispatch"), events("root_done")
	var prev map[string]float64
	monotone := []string{traversals, events("level"), dispatched, rootsDone,
		`crossbfs_engine_discovered_total{engine="hybrid",dir="td"}`,
		`crossbfs_engine_discovered_total{engine="hybrid",dir="bu"}`,
		`crossbfs_engine_grains_total{engine="hybrid"}`}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := reg.Snapshot()
		for k, v := range s {
			if v < 0 {
				t.Fatalf("mid-run snapshot has negative %s = %v", k, v)
			}
		}
		if s[rootsDone] > s[dispatched] {
			t.Fatalf("mid-run snapshot: %v roots done > %v dispatched", s[rootsDone], s[dispatched])
		}
		if prev != nil {
			for _, k := range monotone {
				if s[k] < prev[k] {
					t.Fatalf("counter %s went backwards: %v -> %v", k, prev[k], s[k])
				}
			}
		}
		prev = s
	}
	s := reg.Snapshot()
	if s[traversals] != float64(len(roots)) || s[rootsDone] != float64(len(roots)) {
		t.Errorf("final snapshot: traversals=%v roots_done=%v, want %d each",
			s[traversals], s[rootsDone], len(roots))
	}
}

// runManyCloned runs bfs.RunMany and keeps a durable clone of each
// delivered result, in root order.
func runManyCloned(g *graph.CSR, roots []int32, opts bfs.ManyOptions) ([]*bfs.Result, error) {
	results := make([]*bfs.Result, len(roots))
	err := bfs.RunMany(context.Background(), g, roots, opts, func(i int, _ int32, r *bfs.Result) error {
		results[i] = r.Clone()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
