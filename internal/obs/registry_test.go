package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("crossbfs_engine_traversals_total", "Traversals started.", LabelEngine)
	c.With("hybrid(64,64)").Add(3)
	c.With("serial").Inc()
	g := r.Gauge("crossbfs_flight_open", "Open traversal groups.")
	g.With().Set(2)

	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	page := sb.String()
	for _, want := range []string{
		"# HELP crossbfs_engine_traversals_total Traversals started.\n",
		"# TYPE crossbfs_engine_traversals_total counter\n",
		`crossbfs_engine_traversals_total{engine="hybrid(64,64)"} 3` + "\n",
		`crossbfs_engine_traversals_total{engine="serial"} 1` + "\n",
		"# TYPE crossbfs_flight_open gauge\n",
		"crossbfs_flight_open 2\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition misses %q:\n%s", want, page)
		}
	}
	if _, err := ValidateExposition(strings.NewReader(page)); err != nil {
		t.Errorf("own exposition fails validation: %v", err)
	}
}

func TestRegistryInterningReturnsSameCell(t *testing.T) {
	r := NewRegistry()
	f := r.Counter("crossbfs_engine_levels_total", "Levels.", LabelEngine, LabelDir)
	a := f.With("hybrid(64,64)", "td")
	b := f.With("hybrid(64,64)", "td")
	if a != b {
		t.Fatal("With returned distinct cells for the same tuple")
	}
	if c := f.With("hybrid(64,64)", "bu"); c == a {
		t.Fatal("distinct tuples share a cell")
	}
	// Re-registration with the identical shape is idempotent.
	if f2 := r.Counter("crossbfs_engine_levels_total", "Levels.", LabelEngine, LabelDir); f2 != f {
		t.Fatal("re-registration returned a new family")
	}
}

func TestRegistryRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"empty help", func(r *Registry) { r.Counter("crossbfs_x_total", "") }},
		{"bad name", func(r *Registry) { r.Counter("crossbfs x", "Help.") }},
		{"label outside vocabulary", func(r *Registry) { r.Counter("crossbfs_x_total", "Help.", "user_id") }},
		{"conflicting re-registration", func(r *Registry) {
			r.Counter("crossbfs_x_total", "Help.")
			r.Gauge("crossbfs_x_total", "Help.")
		}},
		{"arity mismatch", func(r *Registry) {
			r.Counter("crossbfs_x_total", "Help.", LabelEngine).With("a", "b")
		}},
		{"unsorted buckets", func(r *Registry) {
			r.Histogram("crossbfs_h", "Help.", []float64{2, 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestHistogramExpositionCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("crossbfs_query_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1}, LabelClass)
	c := h.With("oltp")
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 5} {
		c.Observe(v)
	}
	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	page := sb.String()
	for _, want := range []string{
		`crossbfs_query_latency_seconds_bucket{class="oltp",le="0.001"} 1`,
		`crossbfs_query_latency_seconds_bucket{class="oltp",le="0.01"} 3`,
		`crossbfs_query_latency_seconds_bucket{class="oltp",le="0.1"} 4`,
		`crossbfs_query_latency_seconds_bucket{class="oltp",le="+Inf"} 5`,
		`crossbfs_query_latency_seconds_count{class="oltp"} 5`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition misses %q:\n%s", want, page)
		}
	}
	if got := c.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := c.Sum(); math.Abs(got-5.0545) > 1e-9 {
		t.Errorf("Sum = %v, want 5.0545", got)
	}
	if _, err := ValidateExposition(strings.NewReader(page)); err != nil {
		t.Errorf("histogram exposition fails validation: %v", err)
	}
}

// TestHistogramBucketBoundaries pins the le-bucket encoder's edges:
// values exactly at a power-of-two bound land in that bound's bucket
// (le is inclusive), zero lands in the first bucket, and max-int lands
// in +Inf when it exceeds the top bound.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("crossbfs_engine_frontier_vertices", "Frontier sizes.", SizeBuckets(), LabelEngine)
	c := h.With("serial")

	c.Observe(0)                    // below every bound -> first bucket (le=1)
	c.Observe(1)                    // exactly 2^0 -> le=1 (inclusive)
	c.Observe(2)                    // exactly 2^1 -> le=2
	c.Observe(1 << 20)              // exactly 2^20 -> le=2^20
	c.Observe(float64(1<<31) + 0.5) // above top bound -> +Inf
	c.Observe(math.MaxInt64)        // max-int -> +Inf

	counts := c.BucketCounts()
	bounds := h.bounds
	if counts[0] != 2 { // 0 and 1
		t.Errorf("bucket le=1 count = %d, want 2", counts[0])
	}
	if counts[1] != 1 { // exactly 2
		t.Errorf("bucket le=2 count = %d, want 1", counts[1])
	}
	i20 := -1
	for i, b := range bounds {
		if b == float64(int64(1)<<20) {
			i20 = i
		}
	}
	if i20 < 0 || counts[i20] != 1 {
		t.Errorf("bucket le=2^20 count wrong (idx %d, counts %v)", i20, counts)
	}
	if inf := counts[len(counts)-1]; inf != 2 {
		t.Errorf("+Inf bucket count = %d, want 2", inf)
	}
	if c.Count() != 6 {
		t.Errorf("Count = %d, want 6", c.Count())
	}
}

// TestMetricsWriteJSON pins the flat view's JSON form: it decodes to
// exactly Snapshot, two encodings of the same state are
// byte-identical (encoding/json sorts map keys), and every key is a
// series line on the exposition page carrying the same value.
func TestMetricsWriteJSON(t *testing.T) {
	reg := NewRegistry()
	rr := NewRegistryRecorder(reg, "hybrid(64,64)")
	for _, e := range allKindsFeed {
		rr.Event(e)
	}
	reg.Gauge("crossbfs_test_nan", "A gauge JSON cannot carry.").WithFunc(math.NaN)
	snap := reg.Snapshot()
	a, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("flat view does not encode: %v", err)
	}
	b, _ := json.Marshal(reg.Snapshot())
	if !bytes.Equal(a, b) {
		t.Error("two JSON encodings of the same state differ")
	}
	var got map[string]float64
	if err := json.Unmarshal(a, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(snap) {
		t.Fatalf("JSON has %d keys, snapshot has %d", len(got), len(snap))
	}
	if _, ok := got["crossbfs_test_nan"]; ok {
		t.Error("NaN gauge leaked into the flat view")
	}

	var page strings.Builder
	if err := reg.WriteExposition(&page); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(page.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if line == "" || strings.HasPrefix(line, "#") || !ok || value == "NaN" {
			continue
		}
		lines++
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("page line %q: %v", line, err)
		}
		if jv, ok := got[series]; !ok || jv != v {
			t.Errorf("JSON[%s] = %v (present %v), page says %v", series, jv, ok, v)
		}
	}
	if lines != len(got) {
		t.Errorf("page has %d series, JSON has %d", lines, len(got))
	}
}

func TestCountAtMost(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("crossbfs_query_latency_seconds", "Latency.", []float64{0.001, 0.002, 0.004}, LabelClass)
	c := h.With("oltp")
	for _, v := range []float64{0.0005, 0.0015, 0.003, 0.01} {
		c.Observe(v)
	}
	// Threshold 0.002 covers buckets le=0.001 and le=0.002 whole.
	total, atMost := c.CountAtMost(0.002)
	if total != 4 || atMost != 2 {
		t.Errorf("CountAtMost(0.002) = (%d,%d), want (4,2)", total, atMost)
	}
	// A threshold between bounds is conservative: only whole buckets
	// below it count.
	if _, atMost := c.CountAtMost(0.003); atMost != 2 {
		t.Errorf("CountAtMost(0.003) atMost = %d, want 2", atMost)
	}
	// The +Inf bucket never counts toward atMost: an observation there
	// has no upper bound to compare against the threshold.
	if _, atMost := c.CountAtMost(1); atMost != 3 {
		t.Errorf("CountAtMost(1) atMost = %d, want 3", atMost)
	}
}

func TestRegisterRingGauges(t *testing.T) {
	r := NewRegistry()
	ring := NewRing(4, 64)
	RegisterRingGauges(r, ring)
	rec := WithTraversalID(NextTraversalID(), ring)
	rec.Event(Event{Kind: KindTraversalStart})
	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	page := sb.String()
	if !strings.Contains(page, "crossbfs_flight_open 1\n") {
		t.Errorf("open gauge not reflecting the ring:\n%s", page)
	}
	for _, want := range []string{"crossbfs_flight_retained", "crossbfs_flight_evicted", "crossbfs_flight_truncated", "crossbfs_flight_ignored"} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition misses %s", want)
		}
	}
}
