package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestStreamWriterByteCompat pins the tentpole contract: a drop-free
// StreamWriter produces exactly the bytes TraceWriter would for the
// same event sequence (and therefore also matches the golden file).
func TestStreamWriterByteCompat(t *testing.T) {
	var want bytes.Buffer
	tw := NewTraceWriter(&want)
	for _, e := range goldenEvents() {
		tw.Event(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("TraceWriter Close: %v", err)
	}

	var got bytes.Buffer
	sw := NewStreamWriter(&got)
	for _, e := range goldenEvents() {
		sw.Event(e)
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("StreamWriter Close: %v", err)
	}
	if st := sw.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped %d events on an idle writer", st.Dropped)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("StreamWriter output differs from TraceWriter:\nstream:\n%s\nbuffered:\n%s", got.Bytes(), want.Bytes())
	}
	if _, err := ValidateTrace(got.Bytes()); err != nil {
		t.Errorf("StreamWriter output invalid: %v", err)
	}
}

// TestStreamWriterBoundedMemory is the acceptance criterion: a 10k-level
// synthetic run must never push the pending buffer past its fixed cap.
func TestStreamWriterBoundedMemory(t *testing.T) {
	const levels = 10_000
	var out countingWriter
	sw := NewStreamWriterSize(&out, 16<<10)
	at := func(us int64) time.Time { return time.UnixMicro(1700000000000000 + us) }
	sw.Event(Event{Kind: KindTraversalStart, TraversalID: 7, Root: 1, Engine: "synthetic", Wall: at(0)})
	for i := 1; i <= levels; i++ {
		sw.Event(Event{
			Kind: KindLevel, TraversalID: 7, Root: 1, Step: int32(i), Dir: TopDown,
			FrontierVertices: int64(i), FrontierEdges: int64(16 * i), Discovered: int64(i),
			Grains: 1, Workers: 1, Wall: at(int64(i)), WallDur: time.Microsecond,
		})
	}
	sw.Event(Event{Kind: KindTraversalEnd, TraversalID: 7, Root: 1, Discovered: levels, Wall: at(levels + 1)})
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := sw.Stats()
	if st.MaxBuffered > st.BufferCap {
		t.Fatalf("pending buffer reached %d bytes, cap %d", st.MaxBuffered, st.BufferCap)
	}
	t.Logf("levels=%d wrote=%d bytes, high-water %d of cap %d, dropped %d",
		levels, out.n, st.MaxBuffered, st.BufferCap, st.Dropped)
	if st.Dropped == 0 {
		// Fast writer: the file should be complete and fully valid.
		if s, err := ValidateTrace(out.buf.Bytes()); err != nil {
			t.Errorf("drop-free stream invalid: %v", err)
		} else if s.Levels != levels {
			t.Errorf("trace has %d levels, want %d", s.Levels, levels)
		}
	}
}

// TestStreamWriterDropsUnderBackpressure wedges the writer and keeps
// emitting: events past the buffer cap must be dropped whole (counted,
// never blocking the caller), and the closed document must still be
// well-formed JSON carrying the drop count.
func TestStreamWriterDropsUnderBackpressure(t *testing.T) {
	w := newBlockingWriter()
	sw := NewStreamWriterSize(w, 4<<10)
	// Instant (ph "i") fault events have no step-continuity invariant,
	// so the surviving subset still validates.
	for i := 0; i < 5000; i++ {
		sw.Event(Event{Kind: KindFault, TraversalID: 3, Step: int32(i), Device: "KeplerK20x", Detail: "slow"})
	}
	st := sw.Stats()
	if st.Dropped == 0 {
		t.Fatal("no drops despite a wedged writer and 5000 events")
	}
	if st.MaxBuffered > st.BufferCap {
		t.Fatalf("pending buffer reached %d bytes, cap %d", st.MaxBuffered, st.BufferCap)
	}
	w.release()
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ValidateTrace(w.buf.Bytes()); err != nil {
		t.Fatalf("lossy stream must still be structurally valid: %v", err)
	}
	// The drop count must be recorded in the document itself.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "stream_dropped_events" {
			args, _ := ev["args"].(map[string]any)
			if n, _ := args["dropped"].(float64); uint64(n) != sw.Stats().Dropped {
				t.Errorf("dropped metadata %v != Stats().Dropped %d", args["dropped"], sw.Stats().Dropped)
			}
			found = true
		}
	}
	if !found {
		t.Error("stream_dropped_events metadata missing from lossy trace")
	}
}

// TestStreamWriterFlush verifies Flush is a true barrier: every byte
// accepted before Flush has reached the writer when it returns.
func TestStreamWriterFlush(t *testing.T) {
	var out countingWriter
	sw := NewStreamWriter(&out)
	for _, e := range goldenEvents() {
		sw.Event(e)
	}
	if err := sw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if out.n == 0 {
		t.Fatal("Flush returned but nothing reached the writer")
	}
	// After Flush the written prefix must equal TraceWriter's document
	// for the same events minus the epilogue that Close appends.
	var whole bytes.Buffer
	tw := NewTraceWriter(&whole)
	for _, e := range goldenEvents() {
		tw.Event(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("TraceWriter Close: %v", err)
	}
	var epilogue bytes.Buffer
	(&framer{started: true}).finish(&epilogue)
	if !bytes.Equal(out.buf.Bytes(), bytes.TrimSuffix(whole.Bytes(), epilogue.Bytes())) {
		t.Error("flushed prefix differs from TraceWriter's document without its epilogue")
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestStreamWriterEmptyClose(t *testing.T) {
	var want bytes.Buffer
	if err := NewTraceWriter(&want).Close(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := NewStreamWriter(&got).Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("empty stream %q != empty buffered trace %q", got.Bytes(), want.Bytes())
	}
}

func TestStreamWriterCloseIdempotentAndDropsLate(t *testing.T) {
	var out countingWriter
	sw := NewStreamWriter(&out)
	sw.Event(Event{Kind: KindLevel, TraversalID: 9, Step: 1, Dir: TopDown, FrontierVertices: 1})
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	n := out.n
	sw.Event(Event{Kind: KindLevel, TraversalID: 9, Step: 2, Dir: TopDown})
	if err := sw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if out.n != n {
		t.Error("events or bytes leaked after Close")
	}
	if _, err := ValidateTrace(out.buf.Bytes()); err != nil {
		t.Errorf("closed stream invalid: %v", err)
	}
}

func TestStreamWriterWriteErrorSurfaces(t *testing.T) {
	sw := NewStreamWriter(failWriter{})
	sw.Event(Event{Kind: KindLevel, TraversalID: 1, Step: 1, Dir: TopDown})
	if err := sw.Flush(); err == nil {
		t.Error("Flush swallowed the write error")
	}
	if err := sw.Close(); err == nil {
		t.Error("Close swallowed the write error")
	}
}

// TestStreamWriterConcurrent exercises the mutex/cond paths under the
// race detector: concurrent emitters, a flusher, and periodic Flushes.
func TestStreamWriterConcurrent(t *testing.T) {
	var out countingWriter
	sw := NewStreamWriterSize(&out, 64<<10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := uint64(g + 1)
			for i := 1; i <= 200; i++ {
				sw.Event(Event{Kind: KindLevel, TraversalID: id, Step: int32(i), Dir: TopDown,
					FrontierVertices: 1, Grains: 1, Workers: 1})
				if i%50 == 0 {
					_ = sw.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := sw.Stats(); st.Dropped == 0 {
		if s, err := ValidateTrace(out.buf.Bytes()); err != nil {
			t.Errorf("concurrent stream invalid: %v", err)
		} else if s.Levels != 800 {
			t.Errorf("trace has %d levels, want 800", s.Levels)
		}
	}
}

// countingWriter tallies bytes while retaining them for inspection.
type countingWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
	n   int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n += len(p)
	return w.buf.Write(p)
}

// blockingWriter blocks every Write until released, then records.
type blockingWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	gate    chan struct{}
	release func()
}

func newBlockingWriter() *blockingWriter {
	w := &blockingWriter{gate: make(chan struct{})}
	var once sync.Once
	w.release = func() { once.Do(func() { close(w.gate) }) }
	return w
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, errors.New("sink unavailable")
}
