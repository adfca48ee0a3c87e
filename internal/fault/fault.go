// Package fault is the fault model and injection registry for the
// cross-architecture execution stack. Production heterogeneous BFS
// (the ROADMAP's north star) has failure modes the paper's single
// trusted node never sees: a coprocessor dropping off the bus mid
// handoff, a flaky PCIe link corrupting a transfer, a thermally
// throttled device running at a fraction of its modeled rate. This
// package makes those faults *expressible* — as deterministic,
// seed-driven schedules — so the executor in internal/core can be
// tested against them and so the degradation ladder (retry -> replan
// -> single-architecture) has a machine-checkable contract.
//
// Determinism is the design center: a Schedule is (seed, events), and
// every probabilistic draw (transient link errors) comes from a
// SplitMix64 stream derived from the seed. Re-running the same
// execution against the same schedule replays the same faults, which
// is what makes the FuzzFaultSchedule fuzz target and the CLI's
// -faults flag reproducible.
//
// Fault handling is observable: every fault the executor survives is
// recorded both in the returned Timing's fault log and — when a
// telemetry recorder is attached (core.ResilientOptions.Recorder) —
// as retry/replan/fault events on the faulting device's timeline, so
// a Chrome trace of a degraded run shows where the ladder acted. The
// Device strings in schedules match the same archsim.Arch.Name keys
// the telemetry events carry. See OBSERVABILITY.md.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"crossbfs/internal/xrand"
)

// Kind classifies a fault.
type Kind uint8

const (
	// DeviceCrash removes a device permanently from the step it fires.
	DeviceCrash Kind = iota
	// LinkTransient makes an interconnect transfer fail with a
	// per-attempt probability; retries may succeed.
	LinkTransient
	// KernelSlowdown derates a device's execution rates by a factor
	// from the step it fires (thermal throttling, clock capping).
	KernelSlowdown
	// RankCrash removes one partition rank of a sharded traversal
	// permanently from the level it fires: the rank dies at its
	// exchange seam and the survivors must adopt its owned range.
	RankCrash
	// RankLag stalls one rank at its exchange seam by Factor lag
	// units from the level it fires — a straggler. Whether the lag is
	// merely waited out or fenced by the barrier watchdog depends on
	// the executor's deadline configuration.
	RankLag
	// ExchangeDrop makes each rank's per-level frontier exchange
	// attempt fail with a per-attempt probability; retries (with
	// backoff) may succeed. Draws are stateless hashes of
	// (seed, rank, step, attempt), so concurrent ranks replay the
	// same drop pattern without sharing an RNG stream.
	ExchangeDrop
)

// The retry policy for a dropped transfer (LinkTransient) or exchange
// (ExchangeDrop): up to MaxRetries re-attempts, the first after
// RetryBackoff, each wait doubling up to BackoffCap. The sharded
// engine sleeps it and the simulator ladder in internal/core prices
// it, so both read it from here.
const (
	MaxRetries   = 3
	RetryBackoff = 50 * time.Microsecond
	BackoffCap   = 5 * time.Millisecond
)

func (k Kind) String() string {
	switch k {
	case DeviceCrash:
		return "crash"
	case LinkTransient:
		return "transient"
	case KernelSlowdown:
		return "slow"
	case RankCrash:
		return "rankcrash"
	case RankLag:
		return "ranklag"
	case ExchangeDrop:
		return "exchdrop"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// Device names the faulted device — matched case-insensitively
	// against either an Arch.Name ("KeplerK20x") or a Kind label
	// ("GPU"). Empty for link faults.
	Device string
	// Step is the 1-based BFS step at which the fault fires. Crashes
	// and slowdowns persist for every later step. 0 means "from the
	// start".
	Step int
	// Probability is the per-attempt failure chance of a LinkTransient
	// or ExchangeDrop in [0, 1].
	Probability float64
	// Factor is the KernelSlowdown/RankLag derating multiplier (> 1).
	Factor float64
	// Rank is the targeted partition rank of a RankCrash or RankLag
	// (>= 0). Ignored by device- and link-level kinds.
	Rank int
}

// Matches reports whether the event targets the device identified by
// archName/kindName (either spelling, case-insensitive).
func (e Event) Matches(archName, kindName string) bool {
	return strings.EqualFold(e.Device, archName) || strings.EqualFold(e.Device, kindName)
}

// ActiveAt reports whether a persistent fault (crash, slowdown) has
// fired by the given 1-based step.
func (e Event) ActiveAt(step int) bool { return e.Step <= step }

// String renders the event in the Parse grammar.
func (e Event) String() string {
	switch e.Kind {
	case DeviceCrash:
		return fmt.Sprintf("crash:%s@%d", e.Device, e.Step)
	case LinkTransient:
		return fmt.Sprintf("transient:%g", e.Probability)
	case KernelSlowdown:
		return fmt.Sprintf("slow:%s@%dx%g", e.Device, e.Step, e.Factor)
	case RankCrash:
		return fmt.Sprintf("rankcrash:%d@%d", e.Rank, e.Step)
	case RankLag:
		return fmt.Sprintf("ranklag:%dx%g@%d", e.Rank, e.Factor, e.Step)
	case ExchangeDrop:
		return fmt.Sprintf("exchdrop:%g", e.Probability)
	default:
		return e.Kind.String()
	}
}

// Validate reports whether the event is well-formed.
func (e Event) Validate() error {
	switch e.Kind {
	case DeviceCrash:
		if e.Device == "" {
			return fmt.Errorf("fault: crash event needs a device")
		}
	case LinkTransient:
		if !(e.Probability >= 0 && e.Probability <= 1) { // rejects NaN
			return fmt.Errorf("fault: transient probability %g outside [0,1]", e.Probability)
		}
	case KernelSlowdown:
		if e.Device == "" {
			return fmt.Errorf("fault: slowdown event needs a device")
		}
		if !(e.Factor >= 1) { // rejects NaN
			return fmt.Errorf("fault: slowdown factor %g must be >= 1", e.Factor)
		}
	case RankCrash:
		if e.Rank < 0 {
			return fmt.Errorf("fault: rankcrash rank %d must be >= 0", e.Rank)
		}
	case RankLag:
		if e.Rank < 0 {
			return fmt.Errorf("fault: ranklag rank %d must be >= 0", e.Rank)
		}
		if !(e.Factor >= 1) { // rejects NaN
			return fmt.Errorf("fault: ranklag factor %g must be >= 1", e.Factor)
		}
	case ExchangeDrop:
		if !(e.Probability >= 0 && e.Probability <= 1) { // rejects NaN
			return fmt.Errorf("fault: exchdrop probability %g outside [0,1]", e.Probability)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", e.Kind)
	}
	if e.Step < 0 {
		return fmt.Errorf("fault: negative step %d", e.Step)
	}
	return nil
}

// Error is the typed failure returned when the degradation ladder is
// exhausted: every planned device has crashed, or a required transfer
// cannot complete. Callers distinguish it from traversal errors with
// errors.As.
type Error struct {
	Kind   Kind
	Device string
	Step   int
	Reason string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: %s on %q at step %d: %s", e.Kind, e.Device, e.Step, e.Reason)
}

// Schedule is the injection registry: a deterministic, seed-driven
// set of fault events consulted by the executor. The zero value (and
// a nil *Schedule) is an empty schedule that injects nothing.
//
// A Schedule carries the RNG stream behind transient-link draws, so
// it is stateful: call Reset before each execution to replay the same
// fault sequence, and do not share one Schedule between concurrent
// executions.
type Schedule struct {
	Seed   uint64
	Events []Event

	rng *xrand.SplitMix64
}

// New returns a schedule with the given seed and events. Events are
// validated; invalid ones are rejected.
func New(seed uint64, events ...Event) (*Schedule, error) {
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return nil, err
		}
	}
	s := &Schedule{Seed: seed, Events: append([]Event(nil), events...)}
	s.Reset()
	return s, nil
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Reset re-arms the transient-fault RNG so the next execution replays
// the same draw sequence.
func (s *Schedule) Reset() {
	if s == nil {
		return
	}
	s.rng = xrand.NewSplitMix64(s.Seed)
}

// CrashedBy returns the crash event that has removed the named device
// by the given step, if any.
func (s *Schedule) CrashedBy(archName, kindName string, step int) (Event, bool) {
	if s == nil {
		return Event{}, false
	}
	for _, e := range s.Events {
		if e.Kind == DeviceCrash && e.Matches(archName, kindName) && e.ActiveAt(step) {
			return e, true
		}
	}
	return Event{}, false
}

// SlowdownAt returns the combined derating factor applied to the named
// device at the given step (1 when unaffected). Multiple matching
// slowdowns compound.
func (s *Schedule) SlowdownAt(archName, kindName string, step int) float64 {
	factor := 1.0
	if s == nil {
		return factor
	}
	for _, e := range s.Events {
		if e.Kind == KernelSlowdown && e.Matches(archName, kindName) && e.ActiveAt(step) {
			factor *= e.Factor
		}
	}
	return factor
}

// LinkDrops draws one transfer attempt from the schedule's RNG stream
// and reports whether it fails. With several transient events the
// failure probability compounds (1 - prod(1-p_i)). Deterministic for
// a fixed seed and call sequence.
func (s *Schedule) LinkDrops() bool {
	if s == nil {
		return false
	}
	pOK := 1.0
	any := false
	for _, e := range s.Events {
		if e.Kind == LinkTransient {
			pOK *= 1 - e.Probability
			any = true
		}
	}
	if !any {
		return false
	}
	if s.rng == nil {
		s.Reset()
	}
	// 53-bit uniform in [0,1) from the SplitMix64 stream.
	u := float64(s.rng.Uint64()>>11) / (1 << 53)
	return u < 1-pOK
}

// HasRankFaults reports whether the schedule carries any rank-targeted
// or exchange-drop events — the kinds the sharded engine's
// fault-tolerance machinery consumes. Engines use this to decide
// whether to arm checkpointing and the barrier watchdog.
func (s *Schedule) HasRankFaults() bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		switch e.Kind {
		case RankCrash, RankLag, ExchangeDrop:
			return true
		}
	}
	return false
}

// RankCrashedBy returns the crash event that has removed the given
// partition rank by the given 1-based level, if any.
func (s *Schedule) RankCrashedBy(rank, step int) (Event, bool) {
	if s == nil {
		return Event{}, false
	}
	for _, e := range s.Events {
		if e.Kind == RankCrash && e.Rank == rank && e.ActiveAt(step) {
			return e, true
		}
	}
	return Event{}, false
}

// RankLagAt returns the combined lag factor applied to the given rank
// at the given level (1 when unaffected). Multiple matching lag events
// compound.
func (s *Schedule) RankLagAt(rank, step int) float64 {
	factor := 1.0
	if s == nil {
		return factor
	}
	for _, e := range s.Events {
		if e.Kind == RankLag && e.Rank == rank && e.ActiveAt(step) {
			factor *= e.Factor
		}
	}
	return factor
}

// ExchangeDropProb returns the compound per-attempt exchange failure
// probability (1 - prod(1-p_i) over ExchangeDrop events).
func (s *Schedule) ExchangeDropProb() float64 {
	if s == nil {
		return 0
	}
	pOK := 1.0
	any := false
	for _, e := range s.Events {
		if e.Kind == ExchangeDrop {
			pOK *= 1 - e.Probability
			any = true
		}
	}
	if !any {
		return 0
	}
	return 1 - pOK
}

// ExchangeDrops reports whether the given exchange attempt by one rank
// fails. Unlike LinkDrops this draw is stateless: the uniform comes
// from a SplitMix64 stream keyed by (seed, rank, step, attempt), so
// concurrent ranks draw race-free and every re-execution of the same
// schedule replays the same drop pattern regardless of rank
// interleaving.
func (s *Schedule) ExchangeDrops(rank, step, attempt int) bool {
	p := s.ExchangeDropProb()
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	// Odd multipliers decorrelate the three coordinates before the
	// SplitMix64 finalizer scrambles the combined state.
	key := s.Seed
	key ^= 0x9E3779B97F4A7C15 * uint64(rank+1)
	key ^= 0xD1B54A32D192ED03 * uint64(step+1)
	key ^= 0x8CB92BA72F3D8DD7 * uint64(attempt+1)
	u := float64(xrand.NewSplitMix64(key).Uint64()>>11) / (1 << 53)
	return u < p
}

// String renders the schedule in the Parse grammar (events joined by
// semicolons), or "none" for an empty schedule.
func (s *Schedule) String() string {
	if s.Empty() {
		return "none"
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// Parse builds a schedule from a CLI spec: semicolon- or
// comma-separated fault clauses, seeded with seed.
//
//	crash:<device>@<step>        device crash at step (persists)
//	transient:<p>                link transfers fail with probability p
//	slow:<device>@<step>x<f>     device rates derated by f from step
//	slow:<device>x<f>            ... from the start (step 0)
//	rankcrash:<r>@<level>        partition rank r dies at that level
//	ranklag:<r>x<f>[@<level>]    rank r lags by factor f from level
//	exchdrop:<p>                 exchange attempts fail with probability p
//
// Example: "crash:GPU@4;transient:0.2;slow:CPU@2x1.5". Devices match
// either the Arch.Name or the Kind label, case-insensitively.
//
// Two clauses of the same kind aiming at the same target and step are
// a spec error, not a silent override: "rankcrash:1@2;rankcrash:1@2"
// is rejected so a typo'd schedule cannot half-apply.
func Parse(spec string, seed uint64) (*Schedule, error) {
	var events []Event
	seen := make(map[string]bool)
	for _, clause := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q: want <kind>:<spec>", clause)
		}
		var e Event
		switch strings.ToLower(strings.TrimSpace(kind)) {
		case "crash":
			e.Kind = DeviceCrash
			dev, stepStr, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("fault: clause %q: want crash:<device>@<step>", clause)
			}
			step, err := strconv.Atoi(strings.TrimSpace(stepStr))
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad step: %v", clause, err)
			}
			e.Device, e.Step = strings.TrimSpace(dev), step
		case "transient":
			e.Kind = LinkTransient
			p, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad probability: %v", clause, err)
			}
			e.Probability = p
		case "slow":
			e.Kind = KernelSlowdown
			// Split at the LAST "x": device names may contain one
			// ("KeplerK20x x3" derates KeplerK20x by 3).
			cut := strings.LastIndex(rest, "x")
			if cut < 0 {
				return nil, fmt.Errorf("fault: clause %q: want slow:<device>[@<step>]x<factor>", clause)
			}
			devStep, factorStr := rest[:cut], rest[cut+1:]
			factor, err := strconv.ParseFloat(strings.TrimSpace(factorStr), 64)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad factor: %v", clause, err)
			}
			e.Factor = factor
			dev, stepStr, hasStep := strings.Cut(devStep, "@")
			e.Device = strings.TrimSpace(dev)
			if hasStep {
				step, err := strconv.Atoi(strings.TrimSpace(stepStr))
				if err != nil {
					return nil, fmt.Errorf("fault: clause %q: bad step: %v", clause, err)
				}
				e.Step = step
			}
		case "rankcrash":
			e.Kind = RankCrash
			rankStr, stepStr, ok := strings.Cut(rest, "@")
			if !ok {
				return nil, fmt.Errorf("fault: clause %q: want rankcrash:<rank>@<level>", clause)
			}
			rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad rank: %v", clause, err)
			}
			step, err := strconv.Atoi(strings.TrimSpace(stepStr))
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad level: %v", clause, err)
			}
			e.Rank, e.Step = rank, step
		case "ranklag":
			e.Kind = RankLag
			rankStr, factorStep, ok := strings.Cut(rest, "x")
			if !ok {
				return nil, fmt.Errorf("fault: clause %q: want ranklag:<rank>x<factor>[@<level>]", clause)
			}
			rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad rank: %v", clause, err)
			}
			e.Rank = rank
			factorStr, stepStr, hasStep := strings.Cut(factorStep, "@")
			factor, err := strconv.ParseFloat(strings.TrimSpace(factorStr), 64)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad factor: %v", clause, err)
			}
			e.Factor = factor
			if hasStep {
				step, err := strconv.Atoi(strings.TrimSpace(stepStr))
				if err != nil {
					return nil, fmt.Errorf("fault: clause %q: bad level: %v", clause, err)
				}
				e.Step = step
			}
		case "exchdrop":
			e.Kind = ExchangeDrop
			p, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad probability: %v", clause, err)
			}
			e.Probability = p
		default:
			return nil, fmt.Errorf("fault: clause %q: unknown kind %q (want crash, transient, slow, rankcrash, ranklag, or exchdrop)", clause, kind)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		// One directive per (kind, target, step): duplicates are a spec
		// error rather than a silently compounding surprise.
		key := fmt.Sprintf("%d|%s|%d|%d", e.Kind, strings.ToLower(e.Device), e.Rank, e.Step)
		if seen[key] {
			return nil, fmt.Errorf("fault: clause %q: duplicate %s directive for the same target at step %d", clause, e.Kind, e.Step)
		}
		seen[key] = true
		events = append(events, e)
	}
	return New(seed, events...)
}
