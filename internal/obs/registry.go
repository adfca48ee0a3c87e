package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The dimensional metrics layer. A Registry holds metric *families* —
// a name, a HELP string, a type, and a fixed label set — and each
// family holds *cells*, one per label-value tuple. The contract that
// keeps the hot path allocation-free is interning: a recorder resolves
// every label tuple it will ever emit to *Cell handles at construction
// time (Family.With takes the family lock once), and the per-event
// path is then nothing but atomic adds on those handles. The registry
// is the only aggregator: WriteExposition renders it as Prometheus
// text exposition format v0.0.4, every family typed, and Snapshot
// renders the same series as a flat series-to-value map for JSON and
// expvar.

// Label name vocabulary. Families register only names from this fixed
// set — dimensional metrics stay cheap exactly because the label space
// is small and enumerable at construction time, never derived from
// request data.
const (
	LabelEngine    = "engine"    // kernel name: "hybrid(64,64)", "serial", ...
	LabelDir       = "dir"       // traversal direction: "td" | "bu"
	LabelKind      = "kind"      // query kind ("reach", "multi", ...) or event kind ("level", "switch", ...)
	LabelRank      = "rank"      // shard rank index: "0", "1", ...
	LabelGraph     = "graph"     // resident graph name
	LabelClass     = "class"     // workload class: "oltp" | "olap"
	LabelReason    = "reason"    // admission outcome: "ok", "queue_full", ...
	LabelObjective = "objective" // SLO objective spec string
)

var labelVocabulary = map[string]bool{
	LabelEngine: true, LabelDir: true, LabelKind: true, LabelRank: true,
	LabelGraph: true, LabelClass: true, LabelReason: true, LabelObjective: true,
}

// MetricType is a family's declared exposition type.
type MetricType uint8

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// metricNameRe is the Prometheus metric-name grammar; label names use
// the same shape minus the colon.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry is a set of metric families rendered together as one
// exposition page. Registration takes a lock; the returned families
// and cells are lock-free to update. The zero value is not usable —
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// Counter registers (or re-fetches) a counter family. Registration is
// idempotent: a second call with the same name must carry the same
// type, help, and label set, otherwise it panics — conflicting
// registrations are a wiring bug, caught at construction time like
// expvar's. Counter names end in _total by convention; the
// obsdiscipline analyzer enforces it.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.register(TypeCounter, name, help, nil, labels)
}

// Gauge registers (or re-fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.register(TypeGauge, name, help, nil, labels)
}

// Histogram registers (or re-fetches) a histogram family with the
// given ascending upper bounds (the le values; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Family {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bucket bounds not strictly ascending at %d", name, i))
		}
	}
	bounds := append([]float64(nil), buckets...)
	return r.register(TypeHistogram, name, help, bounds, labels)
}

func (r *Registry) register(typ MetricType, name, help string, bounds []float64, labels []string) *Family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if help == "" {
		panic(fmt.Sprintf("obs: metric %q registered without HELP text", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", name, l))
		}
		if !labelVocabulary[l] {
			panic(fmt.Sprintf("obs: metric %q uses label %q outside the fixed vocabulary", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || f.help != help || !sameStrings(f.labels, labels) || !sameFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a conflicting shape", name))
		}
		return f
	}
	f := &Family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		cells:  make(map[string]*Cell),
	}
	r.families[name] = f
	return f
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Family is one registered metric family. Cells are interned by label
// tuple; resolve them once at construction time, not per event.
type Family struct {
	name   string
	help   string
	typ    MetricType
	labels []string
	bounds []float64 // histogram upper bounds, ascending, no +Inf

	mu    sync.Mutex
	cells map[string]*Cell
}

// Name returns the family's metric name.
func (f *Family) Name() string { return f.name }

// Type returns the family's declared exposition type.
func (f *Family) Type() MetricType { return f.typ }

// cellKey joins label values with a byte that cannot appear in them.
func cellKey(values []string) string {
	return strings.Join(values, "\xff")
}

// With interns the cell for one label-value tuple, creating it on
// first use. It takes the family lock — call it at recorder
// construction, then hold the *Cell for the lifetime of the emitter.
func (f *Family) With(values ...string) *Cell {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	for _, v := range values {
		if strings.ContainsRune(v, '\xff') {
			panic(fmt.Sprintf("obs: metric %q label value %q contains reserved byte", f.name, v))
		}
	}
	key := cellKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.cells[key]; ok {
		return c
	}
	c := &Cell{values: append([]string(nil), values...)}
	if f.typ == TypeHistogram {
		c.counts = make([]atomic.Uint64, len(f.bounds)+1) // last is +Inf
		c.bounds = f.bounds
	}
	f.cells[key] = c
	return c
}

// WithFunc interns a gauge cell whose value is computed at render time
// by fn — the shape for gauges that mirror external state (ring
// occupancy, SLO burn) without a write path.
func (f *Family) WithFunc(fn func() float64, values ...string) {
	if f.typ != TypeGauge {
		panic(fmt.Sprintf("obs: WithFunc on non-gauge metric %q", f.name))
	}
	c := f.With(values...)
	c.fn = fn
}

// Cell is one (family, label tuple) series. Counter/gauge cells hold
// one float64 as atomic bits; histogram cells hold per-bucket counts
// plus a running sum. All mutators are lock-free.
type Cell struct {
	values []string
	bits   atomic.Uint64 // counter/gauge value, float64 bits
	fn     func() float64

	// Histogram state. counts is non-cumulative; the final slot is the
	// +Inf bucket. bounds aliases the family's bound slice.
	bounds  []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// Add increments the cell by v (CAS loop over the float bits).
func (c *Cell) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds one.
func (c *Cell) Inc() { c.Add(1) }

// Set stores v (gauges).
func (c *Cell) Set(v float64) { c.bits.Store(math.Float64bits(v)) }

// Value reads the current counter/gauge value.
func (c *Cell) Value() float64 {
	if c.fn != nil {
		return c.fn()
	}
	return math.Float64frombits(c.bits.Load())
}

// Observe records one histogram observation: binary search for the
// first bound >= v (hand-rolled so the hot path provably allocates
// nothing), bump that bucket, add to the sum.
func (c *Cell) Observe(v float64) {
	lo, hi := 0, len(c.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.counts[lo].Add(1)
	for {
		old := c.sumBits.Load()
		if c.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// BucketCounts returns the non-cumulative per-bucket counts; the last
// entry is the +Inf bucket.
func (c *Cell) BucketCounts() []uint64 {
	out := make([]uint64, len(c.counts))
	for i := range c.counts {
		out[i] = c.counts[i].Load()
	}
	return out
}

// Count returns the histogram's total observation count.
func (c *Cell) Count() uint64 {
	var n uint64
	for i := range c.counts {
		n += c.counts[i].Load()
	}
	return n
}

// Sum returns the histogram's running sum.
func (c *Cell) Sum() float64 { return math.Float64frombits(c.sumBits.Load()) }

// CountAtMost returns (total, atMost): the number of observations
// whose bucket upper bound is <= bound. Because assignment is by
// bucket, an observation only counts toward atMost when its whole
// bucket is below the bound — the conservative reading SLO latency
// objectives want (see LatencySource).
func (c *Cell) CountAtMost(bound float64) (total, atMost uint64) {
	k := 0
	for k < len(c.bounds) && c.bounds[k] <= bound {
		k++
	}
	for i := range c.counts {
		v := c.counts[i].Load()
		total += v
		if i < k {
			atMost += v
		}
	}
	return total, atMost
}

// Pow2Buckets returns unit*2^k for k in [lo, hi]: geometric bounds, so
// a quantile reconstructed from the buckets is off by at most a factor
// of two.
func Pow2Buckets(lo, hi int, unit float64) []float64 {
	if hi < lo {
		panic("obs: Pow2Buckets hi < lo")
	}
	out := make([]float64, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		out = append(out, unit*math.Pow(2, float64(k)))
	}
	return out
}

// LatencyBuckets is the standard latency bound set: 2^0 to 2^26
// microseconds (1µs to 67.1s), expressed in seconds.
func LatencyBuckets() []float64 { return Pow2Buckets(0, 26, 1e-6) }

// SizeBuckets is the standard cardinality bound set (frontier sizes,
// byte counts): 1 to 2^31 in powers of two.
func SizeBuckets() []float64 { return Pow2Buckets(0, 31, 1) }

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// appendValue renders a sample value the way Prometheus clients do,
// with integral values as plain integers so counts stay exact and
// greppable at any size.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case v == math.Trunc(v) && math.Abs(v) < 1<<53:
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendLabels renders {a="x",b="y"} for the given names/values, with
// an le pair appended when le is set; empty input renders nothing.
func appendLabels(b []byte, names, values []string, le string) []byte {
	if len(names) == 0 && le == "" {
		return b
	}
	b = append(b, '{')
	for i := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, names[i]...)
		b = append(b, `="`...)
		b = append(b, escapeLabel(values[i])...)
		b = append(b, '"')
	}
	if le != "" {
		if len(names) > 0 {
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// WriteExposition renders every family in name order as Prometheus
// text exposition format v0.0.4: # HELP, # TYPE, then one sample line
// per series (histograms expand to cumulative _bucket/_sum/_count).
func (r *Registry) WriteExposition(w io.Writer) error {
	var page []byte
	for _, f := range r.sortedFamilies() {
		page = fmt.Appendf(page, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		f.eachSeries(func(series []byte, v float64) {
			page = append(page, series...)
			page = append(page, ' ')
			page = appendValue(page, v)
			page = append(page, '\n')
		})
	}
	_, err := w.Write(page)
	return err
}

// ServeHTTP serves the exposition page, so a registry mounts directly
// on a /metrics route.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteExposition(w)
}

// Snapshot is the flat view of the exposition page: every series the
// page renders, keyed as the page spells it (name plus label block),
// mapped to its value. It backs /metrics.json, bfsrun -metrics-out and
// the expvar publication. Non-finite values are left out, since JSON
// cannot carry them.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		f.eachSeries(func(series []byte, v float64) {
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				out[string(series)] = v
			}
		})
	}
	return out
}

func (r *Registry) sortedFamilies() []*Family {
	r.mu.Lock()
	fams := make([]*Family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// eachSeries calls fn once per rendered series in page order: one per
// counter or gauge cell; cumulative _bucket lines, then _sum and
// _count, per histogram cell. The series bytes are reused across
// calls, so fn copies what it keeps.
func (f *Family) eachSeries(fn func(series []byte, v float64)) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.cells))
	for k := range f.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cells := make([]*Cell, 0, len(keys))
	for _, k := range keys {
		cells = append(cells, f.cells[k])
	}
	f.mu.Unlock()

	var series []byte
	emit := func(c *Cell, suffix, le string, v float64) {
		series = append(series[:0], f.name...)
		series = append(series, suffix...)
		series = appendLabels(series, f.labels, c.values, le)
		fn(series, v)
	}
	for _, c := range cells {
		if f.typ != TypeHistogram {
			emit(c, "", "", c.Value())
			continue
		}
		counts := c.BucketCounts()
		var cum uint64
		for i, bound := range f.bounds {
			cum += counts[i]
			emit(c, "_bucket", strconv.FormatFloat(bound, 'g', -1, 64), float64(cum))
		}
		cum += counts[len(counts)-1]
		emit(c, "_bucket", "+Inf", float64(cum))
		emit(c, "_sum", "", c.Sum())
		emit(c, "_count", "", float64(cum))
	}
}

// RegisterRingGauges exports a Ring's flight-recorder stats as gauges:
// retained/open/evicted/truncated/ignored traversal groups. Open
// growing while the service is at rest is the leak signal
// OBSERVABILITY.md warns about — this is the series that watches it.
func RegisterRingGauges(r *Registry, ring *Ring) {
	r.Gauge("crossbfs_flight_retained",
		"Completed traversal groups currently held by the flight recorder.").
		WithFunc(func() float64 { return float64(ring.Stats().Retained) })
	r.Gauge("crossbfs_flight_open",
		"Traversal groups started but not yet finished in the flight recorder; growth at rest signals leaked traversals.").
		WithFunc(func() float64 { return float64(ring.Stats().Open) })
	r.Gauge("crossbfs_flight_evicted",
		"Traversal groups evicted from the flight recorder to honor the keep bound.").
		WithFunc(func() float64 { return float64(ring.Stats().Evicted) })
	r.Gauge("crossbfs_flight_truncated",
		"Traversal groups that hit the per-traversal event cap and were truncated.").
		WithFunc(func() float64 { return float64(ring.Stats().Truncated) })
	r.Gauge("crossbfs_flight_ignored",
		"Events dropped because they had no traversal group to join: no traversal ID, or a completion event whose traversal was already evicted.").
		WithFunc(func() float64 { return float64(ring.Stats().Ignored) })
}
