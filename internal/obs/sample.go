package obs

import "sync/atomic"

// splitmix64 is the SplitMix64 finalizer — the same mixing discipline
// internal/xrand uses for deterministic fault replay. It is inlined
// here (obs imports nothing from the stack it observes) to hash
// TraversalIDs into a uniform keep/drop decision: sequential IDs are
// the worst-case input for a modulus, and the finalizer's avalanche
// makes 1-in-K selection unbiased over them.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sampler wraps a Recorder and keeps 1-in-K traversals — whole
// traversals, never individual events. The keep/drop decision is a
// pure function of the event's TraversalID (hashed with SplitMix64
// against the sampler's seed), so every emitter that stamps the same
// ID — the traversal's level/switch events, its RunMany dispatch
// bracket, the resilient ladder's retry/replan mirror of the same run
// — lands on the same side of the decision with no shared mutable
// state and no coordination. A kept traversal's trace is therefore
// complete and passes ValidateTrace exactly as an unsampled one would.
//
// Events with TraversalID 0 (unattributed: emitters that never drew an
// ID) always pass through, so coarse bookkeeping events survive any
// sampling rate.
//
// Sampler adds two atomic counters to the hot path and is otherwise
// stateless; it is safe for concurrent use whenever the wrapped
// recorder is.
type Sampler struct {
	next Recorder
	k    uint64
	seed uint64

	seen atomic.Uint64 // traversal/plan starts observed
	kept atomic.Uint64 // traversal/plan starts forwarded
}

// NewSampler returns a Sampler forwarding 1-in-k traversals to next.
// k < 1 is treated as 1 (keep everything); the seed varies which
// residue class of hashed IDs is kept, so two samplers with different
// seeds select independent subsets.
func NewSampler(next Recorder, k int, seed uint64) *Sampler {
	if k < 1 {
		k = 1
	}
	return &Sampler{next: OrNop(next), k: uint64(k), seed: seed}
}

// KeepTraversal reports the sampling decision for one TraversalID —
// exposed so tests (and dump tooling) can predict which traversals a
// trace will contain. ID 0 is always kept.
func (s *Sampler) KeepTraversal(id uint64) bool {
	if id == 0 {
		return true
	}
	return splitmix64(id^s.seed)%s.k == 0
}

// Event implements Recorder.
func (s *Sampler) Event(e Event) {
	keep := s.KeepTraversal(e.TraversalID)
	if e.Kind == KindTraversalStart || e.Kind == KindPlanStart {
		s.seen.Add(1)
		if keep {
			s.kept.Add(1)
		}
	}
	if keep {
		s.next.Event(e)
	}
}

// Seen returns how many traversal/plan starts the sampler observed.
func (s *Sampler) Seen() uint64 { return s.seen.Load() }

// Kept returns how many of those starts were forwarded.
func (s *Sampler) Kept() uint64 { return s.kept.Load() }

// scoped stamps a fixed TraversalID on every event passing through.
// It is a value wrapper (one word of state beyond the interface), so
// WithTraversalID costs a single small allocation per traversal on
// the live path only.
type scoped struct {
	id   uint64
	next Recorder
}

func (s scoped) Event(e Event) {
	e.TraversalID = s.id
	s.next.Event(e)
}

// WithTraversalID returns a recorder that overwrites each event's
// TraversalID with id before forwarding to rec. The RunMany dispatcher
// and the resilient executor use it to bind a dispatch bracket, the
// traversal it launches, and any simulated retry timeline to one ID —
// the invariant that makes whole-traversal sampling (and flight-
// recorder grouping) sound. With id 0 or a non-live rec it returns
// OrNop(rec) unchanged.
func WithTraversalID(id uint64, rec Recorder) Recorder {
	if id == 0 || !Live(rec) {
		return OrNop(rec)
	}
	return scoped{id: id, next: rec}
}

// TraversalIDOf returns the ID rec stamps on every event when rec is
// a WithTraversalID wrapper, and 0 otherwise. A traversal opened under
// such a wrapper takes this ID instead of drawing one that the wrapper
// would overwrite anyway.
func TraversalIDOf(rec Recorder) uint64 {
	if s, ok := rec.(scoped); ok {
		return s.id
	}
	return 0
}
