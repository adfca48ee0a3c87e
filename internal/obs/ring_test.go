package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// traversal feeds one complete synthetic traversal into rec.
func feedTraversal(rec Recorder, id uint64, levels int, base time.Time) {
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	rec.Event(Event{Kind: KindTraversalStart, TraversalID: id, Root: int32(id), Engine: "synthetic", Wall: at(0)})
	for i := 1; i <= levels; i++ {
		rec.Event(Event{Kind: KindLevel, TraversalID: id, Root: int32(id), Step: int32(i), Dir: TopDown,
			FrontierVertices: 1, Grains: 1, Workers: 1, Wall: at(int64(i)), WallDur: time.Microsecond})
	}
	rec.Event(Event{Kind: KindTraversalEnd, TraversalID: id, Root: int32(id), Discovered: int64(levels), Wall: at(int64(levels) + 1)})
}

// TestRingRetainsLastN: only the newest keep complete traversals
// survive; older ones are evicted in FIFO order.
func TestRingRetainsLastN(t *testing.T) {
	r := NewRing(3, 0)
	base := time.UnixMicro(1700000000000000)
	for id := uint64(1); id <= 10; id++ {
		feedTraversal(r, id, 2, base.Add(time.Duration(id)*time.Millisecond))
	}
	st := r.Stats()
	if st.Retained != 3 || st.Open != 0 || st.Evicted != 7 {
		t.Fatalf("stats = %+v, want 3 retained, 0 open, 7 evicted", st)
	}
	var ids []uint64
	r.DumpTo(recorderFunc(func(e Event) {
		if e.Kind == KindTraversalStart {
			ids = append(ids, e.TraversalID)
		}
	}))
	if len(ids) != 3 || ids[0] != 8 || ids[1] != 9 || ids[2] != 10 {
		t.Errorf("retained IDs %v, want [8 9 10]", ids)
	}
}

// TestRingDumpIsValidTrace: the flight-recorder dump must be a fully
// valid Chrome trace with each group contiguous and complete.
func TestRingDumpIsValidTrace(t *testing.T) {
	r := NewRing(4, 0)
	base := time.UnixMicro(1700000000000000)
	// Feed out of wall order: the later-started traversal completes
	// first. The dump must still order groups by wall instant, and no
	// event may land before the epoch (no negative ts).
	feedTraversal(r, 2, 3, base.Add(50*time.Millisecond))
	feedTraversal(r, 1, 4, base)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("flight-recorder dump invalid: %v", err)
	}
	if s.Levels != 7 {
		t.Errorf("dump has %d levels, want 7", s.Levels)
	}
	if len(s.LevelDirs) != 2 {
		t.Errorf("dump has %d traversal lanes, want 2", len(s.LevelDirs))
	}
}

// TestRingOpenGroupsIncluded: a traversal still in flight at dump time
// appears with the events recorded so far.
func TestRingOpenGroupsIncluded(t *testing.T) {
	r := NewRing(2, 0)
	base := time.UnixMicro(1700000000000000)
	feedTraversal(r, 1, 2, base)
	// Open traversal: started but no TraversalEnd yet.
	r.Event(Event{Kind: KindTraversalStart, TraversalID: 9, Root: 9, Wall: base.Add(time.Second)})
	r.Event(Event{Kind: KindLevel, TraversalID: 9, Step: 1, Dir: TopDown, Grains: 1, Workers: 1,
		Wall: base.Add(time.Second + time.Microsecond), WallDur: time.Microsecond})
	st := r.Stats()
	if st.Retained != 1 || st.Open != 1 {
		t.Fatalf("stats = %+v, want 1 retained + 1 open", st)
	}
	n := 0
	starts := 0
	r.DumpTo(recorderFunc(func(e Event) {
		n++
		if e.Kind == KindTraversalStart {
			starts++
		}
	}))
	if starts != 2 {
		t.Errorf("dump has %d traversal starts, want 2 (completed + open)", starts)
	}
	if n != 4+2 {
		t.Errorf("dump has %d events, want 6", n)
	}
}

// TestRingTruncation: groups over the per-traversal cap keep their
// prefix and count the overflow.
func TestRingTruncation(t *testing.T) {
	r := NewRing(2, 8)
	feedTraversal(r, 1, 100, time.UnixMicro(1700000000000000))
	st := r.Stats()
	if st.Retained != 1 {
		t.Fatalf("stats = %+v, want 1 retained", st)
	}
	// 102 events total (start + 100 levels + end), capped at 8 kept.
	if st.Truncated != 102-8 {
		t.Errorf("truncated = %d, want %d", st.Truncated, 102-8)
	}
	n := 0
	r.DumpTo(recorderFunc(func(Event) { n++ }))
	if n != 8 {
		t.Errorf("dump replayed %d events, want the 8-event prefix", n)
	}
}

// TestRingIgnoresUnattributed: ID-0 events have no group and are
// counted, not stored.
func TestRingIgnoresUnattributed(t *testing.T) {
	r := NewRing(2, 0)
	for i := 0; i < 5; i++ {
		r.Event(Event{Kind: KindRootDispatch})
	}
	if st := r.Stats(); st.Ignored != 5 || st.Open != 0 {
		t.Errorf("stats = %+v, want 5 ignored, 0 open", st)
	}
}

// TestRingConcurrent hammers the shards from parallel emitters while a
// dumper reads — the lock-light claim under the race detector.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(8, 64)
	base := time.UnixMicro(1700000000000000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := uint64(g*1000 + i + 1)
				feedTraversal(r, id, 5, base.Add(time.Duration(id)*time.Microsecond))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.DumpTo(Nop)
			r.Stats()
		}
	}()
	wg.Wait()
	<-done
	st := r.Stats()
	if st.Retained != 8 || st.Open != 0 {
		t.Fatalf("stats = %+v, want 8 retained, 0 open after all complete", st)
	}
	if st.Evicted != 8*25-8 {
		t.Errorf("evicted = %d, want %d", st.Evicted, 8*25-8)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(buf.Bytes()); err != nil {
		t.Errorf("post-stress dump invalid: %v", err)
	}
}

// TestRingLateRootDoneAfterEviction: a root_done that trails a
// traversal the ring already evicted has no group to join. It must be
// dropped and counted as ignored, not opened as a one-event stub whose
// retirement would evict a complete traversal in its place.
func TestRingLateRootDoneAfterEviction(t *testing.T) {
	r := NewRing(1, 0)
	base := time.UnixMicro(1700000000000000)
	dispatch := func(kind Kind, id uint64, at time.Time) {
		r.Event(Event{Kind: kind, TraversalID: id, Root: int32(id), Dir: DirNone, Wall: at})
	}
	dispatch(KindRootDispatch, 1, base)
	feedTraversal(r, 1, 1, base)
	dispatch(KindRootDispatch, 2, base.Add(time.Millisecond))
	feedTraversal(r, 2, 1, base.Add(time.Millisecond)) // evicts traversal 1
	dispatch(KindRootDone, 1, base.Add(2*time.Millisecond))

	if st := r.Stats(); st.Retained != 1 || st.Open != 0 || st.Evicted != 1 || st.Ignored != 1 {
		t.Fatalf("stats = %+v, want 1 retained, 0 open, 1 evicted, 1 ignored", st)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("flight-recorder dump invalid: %v", err)
	}
	if len(s.LevelDirs) != 1 {
		t.Errorf("dump has %d traversal lanes, want traversal 2's", len(s.LevelDirs))
	}
}
