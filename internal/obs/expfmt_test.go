package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const goodPage = `# HELP crossbfs_engine_traversals_total Traversals started.
# TYPE crossbfs_engine_traversals_total counter
crossbfs_engine_traversals_total{engine="serial"} 3
# HELP crossbfs_query_latency_seconds Query latency.
# TYPE crossbfs_query_latency_seconds histogram
crossbfs_query_latency_seconds_bucket{class="oltp",le="0.001"} 1
crossbfs_query_latency_seconds_bucket{class="oltp",le="0.01"} 3
crossbfs_query_latency_seconds_bucket{class="oltp",le="+Inf"} 4
crossbfs_query_latency_seconds_sum{class="oltp"} 0.42
crossbfs_query_latency_seconds_count{class="oltp"} 4
`

func TestValidateExpositionAccepts(t *testing.T) {
	st, err := ValidateExposition(strings.NewReader(goodPage))
	if err != nil {
		t.Fatalf("good page rejected: %v", err)
	}
	if st.Families != 2 || st.Histograms != 1 || st.Samples != 6 {
		t.Errorf("stats = %+v, want 2 families / 1 histogram / 6 samples", st)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		page string
		want string
	}{
		{"bad metric name", "1metric 3\n", "invalid metric name"},
		{"untyped family", "crossbfs_x_total 3\n", "untyped"},
		{"declared untyped", "# TYPE crossbfs_x_total untyped\ncrossbfs_x_total 3\n", "untyped"},
		{"missing value", "crossbfs_x_total\n", "no value"},
		{"bad value", "crossbfs_x_total pancake\n", "bad value"},
		{"unknown type", "# TYPE crossbfs_x_total pie\n", "unknown type"},
		{"duplicate TYPE", "# TYPE crossbfs_x_total counter\n# TYPE crossbfs_x_total counter\n", "second TYPE"},
		{"duplicate HELP", "# HELP crossbfs_x_total a\n# HELP crossbfs_x_total b\n", "second HELP"},
		{"type after samples", "crossbfs_x_total 1\n# TYPE crossbfs_x_total counter\n", "after its samples"},
		{"duplicate series", "crossbfs_x_total 1\ncrossbfs_x_total 2\n", "duplicate series"},
		{"duplicate labeled series", `crossbfs_x_total{engine="a"} 1` + "\n" + `crossbfs_x_total{engine="a"} 2` + "\n", "duplicate series"},
		{"duplicate label", `crossbfs_x_total{engine="a",engine="b"} 1` + "\n", "duplicate label"},
		{"unquoted label value", `crossbfs_x_total{engine=a} 1` + "\n", "not quoted"},
		{"interleaved families", "crossbfs_a_total 1\ncrossbfs_b_total 1\ncrossbfs_a_total{engine=\"x\"} 1\n", "reappears"},
		{"histogram stray base sample", "# TYPE crossbfs_h histogram\ncrossbfs_h 1\n", "stray sample"},
		{"histogram without +Inf", "# TYPE crossbfs_h histogram\ncrossbfs_h_bucket{le=\"1\"} 1\ncrossbfs_h_sum 1\ncrossbfs_h_count 1\n", "no +Inf"},
		{"histogram count mismatch", "# TYPE crossbfs_h histogram\ncrossbfs_h_bucket{le=\"+Inf\"} 3\ncrossbfs_h_sum 1\ncrossbfs_h_count 2\n", "_count"},
		{"histogram decreasing buckets", "# TYPE crossbfs_h histogram\ncrossbfs_h_bucket{le=\"1\"} 5\ncrossbfs_h_bucket{le=\"2\"} 3\ncrossbfs_h_bucket{le=\"+Inf\"} 5\ncrossbfs_h_sum 1\ncrossbfs_h_count 5\n", "decrease"},
		{"histogram missing sum", "# TYPE crossbfs_h histogram\ncrossbfs_h_bucket{le=\"+Inf\"} 1\ncrossbfs_h_count 1\n", "missing _sum"},
		{"bucket without le", "# TYPE crossbfs_h histogram\ncrossbfs_h_bucket 1\ncrossbfs_h_sum 1\ncrossbfs_h_count 1\n", "without le"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateExposition(strings.NewReader(tc.page))
			if err == nil {
				t.Fatalf("page accepted:\n%s", tc.page)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseExpositionRoundTrip(t *testing.T) {
	// ParseExposition is the grammar-level reader: it accepts untyped
	// samples (the format allows them); only ValidateExposition
	// insists on a declared type.
	fams, err := ParseExposition(strings.NewReader(goodPage + "crossbfs_untyped_total 17\n"))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	byName := make(map[string]ExpoFamily)
	for _, f := range fams {
		byName[f.Name] = f
	}
	trav := byName["crossbfs_engine_traversals_total"]
	if trav.Type != "counter" || len(trav.Samples) != 1 || trav.Samples[0].Value != 3 {
		t.Errorf("traversals family parsed wrong: %+v", trav)
	}
	if trav.Samples[0].Labels["engine"] != "serial" {
		t.Errorf("label lost: %+v", trav.Samples[0])
	}
	lat := byName["crossbfs_query_latency_seconds"]
	if lat.Type != "histogram" || len(lat.Samples) != 5 {
		t.Errorf("latency family parsed wrong: %+v", lat)
	}
	if flat := byName["crossbfs_untyped_total"]; flat.Type != "untyped" || flat.Samples[0].Value != 17 {
		t.Errorf("untyped line parsed wrong: %+v", flat)
	}
}

func TestParseHelpEscapes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("crossbfs_x_total", `path C:\new\dir`+"\nsecond line").With().Inc()
	var page bytes.Buffer
	if err := reg.WriteExposition(&page); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(&page)
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if got, want := fams[0].Help, `path C:\new\dir`+"\nsecond line"; got != want {
		t.Errorf("help = %q, want %q", got, want)
	}
}

// FuzzExpositionRoundTrip: a page Registry.WriteExposition renders
// parses back to the help text, label values and sample values it was
// given, and ParseExposition never panics on arbitrary bytes.
func FuzzExpositionRoundTrip(f *testing.F) {
	f.Add("Query latency.", "serial", "reach", 3.0, math.NaN(), []byte(goodPage))
	f.Add(`path C:\new\dir`, `a"b\c`+"\n", "", math.Inf(1), math.Inf(-1), []byte(`x{a="\q"} 1`))
	f.Add(" tab\tand\\n", "\xfe", "1e+300", 5e-324, -0.5, []byte("# HELP\n# TYPE x histogram\nx_bucket 1\n"))
	f.Add("ends in a carriage return\r", "\r", "", 489.0, 0.0, []byte("x 1\r\n"))
	f.Fuzz(func(t *testing.T, help, a, b string, x, y float64, raw []byte) {
		_, _ = ParseExposition(bytes.NewReader(raw))

		if help == "" || strings.Contains(a+b, "\xff") {
			return // registration rejects empty help and the reserved byte
		}
		reg := NewRegistry()
		fam := reg.Gauge("crossbfs_fuzz_value", help, LabelEngine, LabelKind)
		fam.With(a, b).Set(x)
		fam.With(b, a).Set(y)
		want := map[[2]string]float64{{a, b}: x}
		want[[2]string{b, a}] = y // the same cell when a == b
		var page bytes.Buffer
		if err := reg.WriteExposition(&page); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(bytes.NewReader(page.Bytes()))
		if err != nil {
			t.Fatalf("ParseExposition of a rendered page: %v\n%s", err, page.Bytes())
		}
		if len(fams) != 1 || fams[0].Help != help || fams[0].Type != "gauge" || len(fams[0].Samples) != len(want) {
			t.Fatalf("rendered %q, parsed %+v", page.Bytes(), fams)
		}
		for _, s := range fams[0].Samples {
			v, ok := want[[2]string{s.Labels[LabelEngine], s.Labels[LabelKind]}]
			if !ok || len(s.Labels) != 2 || !(s.Value == v || math.IsNaN(s.Value) && math.IsNaN(v)) {
				t.Fatalf("parsed sample %+v, want labels and values %v", s, want)
			}
		}
	})
}

func TestParseLabelEscapes(t *testing.T) {
	page := `crossbfs_x_total{graph="a\"b\\c\nd"} 1` + "\n"
	fams, err := ParseExposition(strings.NewReader(page))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	got := fams[0].Samples[0].Labels["graph"]
	if got != "a\"b\\c\nd" {
		t.Errorf("unescaped label = %q", got)
	}
	// Round-trip through the encoder's escaping.
	if esc := escapeLabel(got); esc != `a\"b\\c\nd` {
		t.Errorf("escapeLabel = %q", esc)
	}
}

func TestHistogramQuantile(t *testing.T) {
	buckets := []HistBucket{
		{LE: 0.001, Count: 10},
		{LE: 0.002, Count: 70},
		{LE: 0.004, Count: 95},
		{LE: math.Inf(1), Count: 100},
	}
	if got := HistogramQuantile(0.5, buckets); got != 0.002 {
		t.Errorf("p50 = %v, want 0.002", got)
	}
	if got := HistogramQuantile(0.99, buckets); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf", got)
	}
	if got := HistogramQuantile(0.9, buckets); got != 0.004 {
		t.Errorf("p90 = %v, want 0.004", got)
	}
	if got := HistogramQuantile(0.5, nil); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}

// TestQuantileAgreesWithEncoder replays one latency stream through the
// le-bucket encoder and checks that quantiles reconstructed from the
// exposition match the exact nearest-rank quantiles to within one
// power-of-two bucket — the resolution contract bfsload's server-side
// view depends on.
func TestQuantileAgreesWithEncoder(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("crossbfs_query_latency_seconds", "Latency.", LatencyBuckets(), LabelClass)
	c := h.With("oltp")
	// A long-tailed stream in seconds: mostly ~100-800µs, tail to 40ms.
	var stream []float64
	for i := 0; i < 1000; i++ {
		v := 100e-6 + float64(i%17)*43e-6
		if i%100 == 0 {
			v = 10e-3 + float64(i%5)*6e-3
		}
		stream = append(stream, v)
		c.Observe(v)
	}

	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	fams, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	buckets := HistogramBuckets(fams[0], map[string]string{"class": "oltp"})

	exact := append([]float64(nil), stream...)
	sortFloats(exact)
	for _, q := range []float64{0.5, 0.99} {
		est := HistogramQuantile(q, buckets)
		idx := int(math.Ceil(q*float64(len(exact)))) - 1
		truth := exact[idx]
		// Within one bucket: the estimate is the upper bound of the
		// bucket holding the true value, so truth <= est <= 2*truth
		// rounded up to the next power-of-two bound.
		if est < truth || est > nextPow2Bound(truth) {
			t.Errorf("q=%v: estimate %v outside [%v, %v]", q, est, truth, nextPow2Bound(truth))
		}
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// nextPow2Bound returns the smallest bound in LatencyBuckets() at or
// above v, times two (one bucket of slack).
func nextPow2Bound(v float64) float64 {
	for _, b := range LatencyBuckets() {
		if b >= v {
			return 2 * b
		}
	}
	return math.Inf(1)
}
