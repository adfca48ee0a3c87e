package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The SLO engine: declarative objectives over the labeled metric
// families, evaluated with multi-window burn rates. An objective like
// "oltp p99 < 2ms over 5m" grants an error budget of 1% (the
// complement of the quantile): up to 1% of queries in any 5-minute
// window may exceed 2ms. The burn rate is how fast that budget is
// being consumed — bad-fraction divided by budget — and the engine
// breaches only when BOTH a long window (the objective's) and a short
// window (window/12, the SRE multi-window rule) burn at or above the
// threshold: the long window proves it matters, the short window
// proves it is still happening, so a breach never fires on a spike
// that already ended, nor on a slow bleed that a scrape blip mimics.
//
// Sources are cumulative (total, bad) pairs read at every Tick; the
// engine differences timestamped snapshots internally, so it composes
// with any monotone counter pair — histogram cells via LatencySource,
// admission counters via a closure.

// ObjectiveKind discriminates the two objective grammars.
type ObjectiveKind uint8

const (
	// LatencyObjective bounds a latency quantile: "<sel> p99 < 2ms over 5m".
	LatencyObjective ObjectiveKind = iota
	// ErrorRatioObjective bounds the failure fraction: "error ratio < 0.1% over 30m".
	ErrorRatioObjective
)

// Objective is one parsed SLO declaration.
type Objective struct {
	// Spec is the original declaration, the objective's identity in
	// verdicts and labels.
	Spec string
	// Selector scopes a latency objective: a class ("oltp", "olap"), a
	// query kind ("reach", ...), or "total". "error" for error-ratio
	// objectives.
	Selector string
	Kind     ObjectiveKind
	// Quantile is the bounded quantile (0.99 for p99); latency only.
	Quantile float64
	// Threshold is the bound: seconds for latency, a ratio (0.001 for
	// 0.1%) for error objectives.
	Threshold float64
	// Window is the long evaluation window.
	Window time.Duration
}

// Budget is the tolerated bad fraction: the quantile's complement for
// latency (p99 tolerates 1%), the ratio itself for errors.
func (o Objective) Budget() float64 {
	if o.Kind == ErrorRatioObjective {
		return o.Threshold
	}
	return 1 - o.Quantile
}

// ParseObjective parses one declaration. Two grammars:
//
//	<selector> p<digits> < <duration> over <window>   e.g. "oltp p99 < 2ms over 5m"
//	error ratio < <percent>% over <window>            e.g. "error ratio < 0.1% over 30m"
func ParseObjective(spec string) (Objective, error) {
	f := strings.Fields(spec)
	bad := func(why string) (Objective, error) {
		return Objective{}, fmt.Errorf("objective %q: %s", spec, why)
	}
	if len(f) != 6 {
		return bad(`want "<sel> p<q> < <dur> over <win>" or "error ratio < <pct>% over <win>"`)
	}
	if f[2] != "<" || f[4] != "over" {
		return bad(`want "... < ... over ..."`)
	}
	window, err := time.ParseDuration(f[5])
	if err != nil || window <= 0 {
		return bad(fmt.Sprintf("bad window %q", f[5]))
	}
	o := Objective{Spec: spec, Selector: f[0], Window: window}
	if f[0] == "error" {
		if f[1] != "ratio" {
			return bad(`error objectives read "error ratio < <pct>% over <win>"`)
		}
		pctStr, ok := strings.CutSuffix(f[3], "%")
		if !ok {
			return bad(fmt.Sprintf("threshold %q needs a %% suffix", f[3]))
		}
		pct, err := strconv.ParseFloat(pctStr, 64)
		ratio := pct / 100
		// A range test rejects NaN, which fails every comparison, and
		// tests the ratio so a percentage that underflows to 0 fails too.
		if err != nil || !(ratio > 0 && ratio < 1) {
			return bad(fmt.Sprintf("bad error percentage %q", f[3]))
		}
		o.Kind = ErrorRatioObjective
		o.Threshold = ratio
		return o, nil
	}
	digits, ok := strings.CutPrefix(f[1], "p")
	if !ok || digits == "" || len(digits) > 4 {
		return bad(fmt.Sprintf("bad quantile %q (want p50, p99, p999, ...)", f[1]))
	}
	n, err := strconv.ParseUint(digits, 10, 32)
	if err != nil {
		return bad(fmt.Sprintf("bad quantile %q", f[1]))
	}
	div := 1.0
	for range digits {
		div *= 10
	}
	o.Quantile = float64(n) / div
	if o.Quantile <= 0 || o.Quantile >= 1 {
		return bad(fmt.Sprintf("quantile %q out of (0,1)", f[1]))
	}
	threshold, err := time.ParseDuration(f[3])
	if err != nil || threshold <= 0 {
		return bad(fmt.Sprintf("bad latency threshold %q", f[3]))
	}
	o.Kind = LatencyObjective
	o.Threshold = threshold.Seconds()
	return o, nil
}

// SLOSource reads one objective's cumulative (total, bad) counters.
// Must be safe for concurrent use and cheap — it runs every Tick.
type SLOSource func() (total, bad float64)

// LatencySource adapts labeled histogram cells into an SLOSource for a
// latency objective: total is the observation count, bad the
// observations NOT provably at or under the threshold. Attribution is
// by bucket, so the reading is conservative — an observation only
// counts as good when its whole bucket lies at or under the threshold
// (CountAtMost). With power-of-two bounds that overstates badness by
// at most one bucket's width, which errs toward paging, never toward
// missing a breach.
func LatencySource(thresholdSeconds float64, cells ...*Cell) SLOSource {
	return func() (total, bad float64) {
		for _, c := range cells {
			t, atMost := c.CountAtMost(thresholdSeconds)
			total += float64(t)
			bad += float64(t - atMost)
		}
		return total, bad
	}
}

// SLOObjective binds a parsed objective to its counter source.
type SLOObjective struct {
	Objective
	Source SLOSource
}

// SLOOptions tunes the evaluator; zero values take the defaults.
type SLOOptions struct {
	// Burn is the burn-rate threshold both windows must reach to
	// breach; default 1 (consuming budget exactly at the sustainable
	// rate).
	Burn float64
	// ShortDiv divides the objective window into the short
	// confirmation window; default 12 (5m for a 1h objective).
	ShortDiv int
	// Cooldown spaces OnBreach firings: at most one per cooldown
	// across all objectives. Default 10m.
	Cooldown time.Duration
	// OnBreach fires (outside the engine lock) with the breaching
	// verdict — the hook serve uses for incident capture.
	OnBreach func(Verdict)
}

// Verdict is one objective's evaluation at a Tick — the /debug/slo
// payload element.
type Verdict struct {
	Objective string  `json:"objective"`
	WindowSec float64 `json:"window_sec"`
	Budget    float64 `json:"budget"`
	BurnLong  float64 `json:"burn_long"`
	BurnShort float64 `json:"burn_short"`
	Breaching bool    `json:"breaching"`
	// Total and Bad are the cumulative source readings at this tick.
	Total float64 `json:"total"`
	Bad   float64 `json:"bad"`
}

type sloSample struct {
	t          time.Time
	total, bad float64
}

type sloState struct {
	obj     SLOObjective
	samples []sloSample
}

// SLO evaluates a set of objectives from Tick to Tick. Drive it with a
// ticker at the poll interval; Tick(now) is pure in now, so tests
// replay synthetic timelines.
type SLO struct {
	opt SLOOptions

	mu         sync.Mutex
	objs       []*sloState
	verdicts   []Verdict
	lastBreach time.Time
	breaches   uint64
}

// NewSLO builds an evaluator over the given objectives.
func NewSLO(objs []SLOObjective, opt SLOOptions) *SLO {
	if opt.Burn <= 0 {
		opt.Burn = 1
	}
	if opt.ShortDiv <= 0 {
		opt.ShortDiv = 12
	}
	if opt.Cooldown <= 0 {
		opt.Cooldown = 10 * time.Minute
	}
	s := &SLO{opt: opt}
	for _, o := range objs {
		s.objs = append(s.objs, &sloState{obj: o})
	}
	return s
}

// Tick reads every source, evaluates burn rates at now, stores the
// verdicts, and fires OnBreach (once per cooldown, across objectives)
// when any objective breaches. Call from one goroutine.
func (s *SLO) Tick(now time.Time) []Verdict {
	s.mu.Lock()
	verdicts := make([]Verdict, 0, len(s.objs))
	var breach *Verdict
	for _, st := range s.objs {
		total, bad := st.obj.Source()
		st.samples = append(st.samples, sloSample{t: now, total: total, bad: bad})
		st.prune(now, 2*st.obj.Window)

		short := st.obj.Window / time.Duration(s.opt.ShortDiv)
		if short <= 0 {
			short = time.Second
		}
		v := Verdict{
			Objective: st.obj.Spec,
			WindowSec: st.obj.Window.Seconds(),
			Budget:    st.obj.Budget(),
			BurnLong:  st.burnOver(now, st.obj.Window),
			BurnShort: st.burnOver(now, short),
			Total:     total,
			Bad:       bad,
		}
		v.Breaching = v.BurnLong >= s.opt.Burn && v.BurnShort >= s.opt.Burn
		if v.Breaching && breach == nil {
			breach = &v
		}
		verdicts = append(verdicts, v)
	}
	s.verdicts = verdicts
	fire := false
	if breach != nil && now.Sub(s.lastBreach) >= s.opt.Cooldown {
		s.lastBreach = now
		s.breaches++
		fire = true
	}
	hook := s.opt.OnBreach
	s.mu.Unlock()
	// The hook runs outside the lock: incident capture takes a CPU
	// profile for around a second, and /debug/slo must stay readable
	// meanwhile.
	if fire && hook != nil {
		hook(*breach)
	}
	return verdicts
}

// Verdicts returns the last Tick's evaluations (a copy).
func (s *SLO) Verdicts() []Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Verdict(nil), s.verdicts...)
}

// Verdict returns the i-th objective's last evaluation (objectives
// keep their construction order) — the accessor burn gauges poll.
func (s *SLO) Verdict(i int) (Verdict, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.verdicts) {
		return Verdict{}, false
	}
	return s.verdicts[i], true
}

// prune drops samples older than keep, always retaining the newest
// sample older than the window as the long-window anchor.
func (st *sloState) prune(now time.Time, keep time.Duration) {
	cut := now.Add(-keep)
	i := 0
	for i < len(st.samples)-1 && st.samples[i].t.Before(cut) {
		i++
	}
	if i > 0 {
		st.samples = append(st.samples[:0], st.samples[i:]...)
	}
}

// burnOver computes the burn rate over the trailing lookback: the bad
// fraction of the traffic delta between the anchor sample (the newest
// one at or before now-lookback, else the oldest held) and the current
// reading, divided by the budget. No traffic in the window burns
// nothing.
func (st *sloState) burnOver(now time.Time, lookback time.Duration) float64 {
	n := len(st.samples)
	if n < 2 {
		return 0
	}
	cut := now.Add(-lookback)
	anchor := st.samples[0]
	for _, s := range st.samples[:n-1] {
		if s.t.After(cut) {
			break
		}
		anchor = s
	}
	cur := st.samples[n-1]
	dTotal := cur.total - anchor.total
	if dTotal <= 0 {
		return 0
	}
	dBad := cur.bad - anchor.bad
	if dBad < 0 {
		dBad = 0
	}
	budget := st.obj.Budget()
	if budget <= 0 {
		return 0
	}
	return (dBad / dTotal) / budget
}
