package obs

import (
	"bytes"
	"testing"
)

// TestSamplerWholeTraversal is the core invariant: for any ID the
// sampler either forwards every event of the traversal or none —
// the decision is per-traversal, never per-event.
func TestSamplerWholeTraversal(t *testing.T) {
	const k = 4
	counts := make(map[uint64]int)
	s := NewSampler(recorderFunc(func(e Event) { counts[e.TraversalID]++ }), k, 12345)

	const traversals = 400
	const eventsPer = 5
	for id := uint64(1); id <= traversals; id++ {
		s.Event(Event{Kind: KindTraversalStart, TraversalID: id})
		for step := int32(1); step < eventsPer-1; step++ {
			s.Event(Event{Kind: KindLevel, TraversalID: id, Step: step, Dir: TopDown})
		}
		s.Event(Event{Kind: KindTraversalEnd, TraversalID: id})
	}
	kept := 0
	for id := uint64(1); id <= traversals; id++ {
		switch counts[id] {
		case 0:
			if s.KeepTraversal(id) {
				t.Fatalf("id %d: KeepTraversal true but no events forwarded", id)
			}
		case eventsPer:
			if !s.KeepTraversal(id) {
				t.Fatalf("id %d: KeepTraversal false but events forwarded", id)
			}
			kept++
		default:
			t.Fatalf("id %d: %d of %d events forwarded — traversal split", id, counts[id], eventsPer)
		}
	}
	if kept == 0 || kept == traversals {
		t.Fatalf("kept %d of %d traversals at k=%d — sampling is degenerate", kept, traversals, k)
	}
	// SplitMix64 over sequential IDs should land near 1/k. Allow 2x slack.
	if lo, hi := traversals/(2*k), 2*traversals/k; kept < lo || kept > hi {
		t.Errorf("kept %d of %d at k=%d, want within [%d, %d]", kept, traversals, k, lo, hi)
	}
	if s.Seen() != traversals || s.Kept() != uint64(kept) {
		t.Errorf("counters seen=%d kept=%d, want %d/%d", s.Seen(), s.Kept(), traversals, kept)
	}
}

// TestSamplerDeterministic: same (id, k, seed) always decides the same
// way — the property that lets independent emitters agree without
// coordination — and different seeds select different subsets.
func TestSamplerDeterministic(t *testing.T) {
	a := NewSampler(Nop, 8, 42)
	b := NewSampler(Nop, 8, 42)
	c := NewSampler(Nop, 8, 43)
	differ := false
	for id := uint64(1); id <= 1000; id++ {
		if a.KeepTraversal(id) != b.KeepTraversal(id) {
			t.Fatalf("id %d: same seed disagrees", id)
		}
		if a.KeepTraversal(id) != c.KeepTraversal(id) {
			differ = true
		}
	}
	if !differ {
		t.Error("seeds 42 and 43 selected identical subsets over 1000 IDs")
	}
}

// TestSamplerUnattributedPassThrough: ID-0 events (emitters that never
// drew an ID) bypass sampling at any rate.
func TestSamplerUnattributedPassThrough(t *testing.T) {
	n := 0
	s := NewSampler(recorderFunc(func(Event) { n++ }), 1<<30, 7)
	for i := 0; i < 10; i++ {
		s.Event(Event{Kind: KindRootDispatch})
	}
	if n != 10 {
		t.Errorf("%d of 10 unattributed events forwarded", n)
	}
}

func TestSamplerKeepAll(t *testing.T) {
	n := 0
	s := NewSampler(recorderFunc(func(Event) { n++ }), 0, 0) // k<1 -> keep all
	for id := uint64(1); id <= 50; id++ {
		s.Event(Event{Kind: KindLevel, TraversalID: id, Step: 1, Dir: TopDown})
	}
	if n != 50 {
		t.Errorf("k=0 sampler forwarded %d of 50", n)
	}
}

// TestSampledTraceValidates: a kept traversal routed through a Sampler
// into a TraceWriter yields a valid trace with the full direction
// sequence — nothing of the kept traversal is missing.
func TestSampledTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	s := NewSampler(tw, 3, 99)

	// Find a kept ID and a dropped ID, then replay the golden traversal
	// (re-stamped) under each.
	var keptID, dropID uint64
	for id := uint64(1); id < 100 && (keptID == 0 || dropID == 0); id++ {
		if s.KeepTraversal(id) {
			if keptID == 0 {
				keptID = id
			}
		} else if dropID == 0 {
			dropID = id
		}
	}
	for _, id := range []uint64{keptID, dropID} {
		for _, e := range goldenEvents() {
			if e.TraversalID == 0 {
				continue // skip the dispatch bracket: keep lanes per-ID here
			}
			if e.TraversalID == 3 {
				// Skip the sharded traversal: re-stamping it onto the same
				// ID as the hybrid one would merge two step sequences into
				// one lane.
				continue
			}
			e.TraversalID = id
			s.Event(e)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("sampled trace invalid: %v", err)
	}
	if sum.Levels != 4 || sum.SimSteps != 4 {
		t.Errorf("kept traversal incomplete: %d levels, %d sim steps (want 4, 4)", sum.Levels, sum.SimSteps)
	}
	if len(sum.LevelDirs) != 1 {
		t.Fatalf("trace has %d traversal lanes, want only the kept one", len(sum.LevelDirs))
	}
	for _, tid := range TimelineIDs(sum.LevelDirs) {
		want := []string{"TD", "TD", "BU", "TD"}
		got := sum.LevelDirs[tid]
		if len(got) != len(want) {
			t.Fatalf("kept lane has %d levels, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("kept lane level %d = %s, want %s", i+1, got[i], want[i])
			}
		}
	}
}

func TestWithTraversalID(t *testing.T) {
	var got []uint64
	rec := recorderFunc(func(e Event) { got = append(got, e.TraversalID) })
	w := WithTraversalID(77, rec)
	w.Event(Event{Kind: KindLevel, TraversalID: 0})
	w.Event(Event{Kind: KindLevel, TraversalID: 12})
	for i, id := range got {
		if id != 77 {
			t.Errorf("event %d forwarded with ID %d, want 77", i, id)
		}
	}
	got = got[:0]
	WithTraversalID(0, rec).Event(Event{Kind: KindLevel, TraversalID: 12})
	if len(got) != 1 || got[0] != 12 {
		t.Errorf("id 0 wrapper altered events: %v", got)
	}
	if WithTraversalID(5, nil) != Nop {
		t.Error("nil recorder should collapse to Nop")
	}
	if WithTraversalID(5, Nop) != Nop {
		t.Error("Nop recorder should stay Nop")
	}
	if id := TraversalIDOf(w); id != 77 {
		t.Errorf("TraversalIDOf(wrapper) = %d, want 77", id)
	}
	if id := TraversalIDOf(rec); id != 0 {
		t.Errorf("TraversalIDOf(plain recorder) = %d, want 0", id)
	}
}

// recorderFunc adapts a function to the Recorder interface for tests.
type recorderFunc func(Event)

func (f recorderFunc) Event(e Event) { f(e) }
