package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ringShards buckets in-flight traversals by TraversalID so concurrent
// RunMany roots contend on different mutexes. 8 covers the default
// dispatch widths; contention is one shard-mutex per event.
const ringShards = 8

// Defaults for NewRing arguments <= 0.
const (
	DefaultRingKeep      = 8
	DefaultRingMaxEvents = 4096
)

// Ring is a flight recorder: a Recorder that retains the last N
// *complete* traversals (and simulated plan timelines) in memory and
// discards older ones, so a long-running service can dump "what just
// happened" after a fault or on SIGQUIT without paying for a full
// trace of everything that ever ran.
//
// Events are grouped by TraversalID. A group accumulates in a
// per-shard map while open and is retired into the ring when its
// KindTraversalEnd / KindPlanEnd / KindRootDone arrives; retiring the
// keep+1'th group evicts the oldest. Events that trail a group's
// completion under the same ID — RunMany's root_done bracket, the
// resilient ladder's priced replay — are appended to the retained
// group, so one logical run stays one flight-recorder entry. Groups
// exceeding the per-traversal event cap keep their prefix and count
// the rest as truncated — memory is bounded by keep × maxEvents events
// plus whatever is in flight. Events with TraversalID 0 have no group
// to belong to and are counted as ignored, as is a completion event
// whose traversal was already evicted.
//
// DumpTo replays the retained groups into any Recorder (each group
// contiguously, in the order they started, groups with no wall instant
// first); WriteTrace is the one-call dump to a Chrome trace file
// through a TraceWriter. Both may run while traversals are still being
// recorded.
type Ring struct {
	keep      int
	maxEvents int

	shards [ringShards]ringShard

	done struct {
		sync.Mutex
		groups []*ringGroup          // retirement order; len <= keep
		index  map[uint64]*ringGroup // id -> retained group, for late events
	}

	evicted   atomic.Uint64
	truncated atomic.Uint64
	ignored   atomic.Uint64
}

type ringShard struct {
	mu   sync.Mutex
	open map[uint64]*ringGroup
}

type ringGroup struct {
	id     uint64
	events []Event
	// firstWall orders groups for replay. Within a group events arrive
	// in time order (the obs ordering contract), so the first
	// wall-clocked event carries the group's earliest instant.
	firstWall time.Time
	haveWall  bool
	truncated uint64
}

// RingStats is a point-in-time view of a Ring's retention counters.
type RingStats struct {
	Retained  int    // complete traversals currently held
	Open      int    // traversals still accumulating
	Evicted   uint64 // complete traversals pushed out by newer ones
	Truncated uint64 // events dropped by the per-traversal cap
	// Ignored counts events with no group to join: those with
	// TraversalID 0, and completion events (such as a late root_done)
	// whose traversal was already evicted.
	Ignored uint64
}

// NewRing returns a flight recorder retaining the last keep complete
// traversals, each capped at maxEvents events. Non-positive arguments
// take the package defaults.
func NewRing(keep, maxEvents int) *Ring {
	if keep <= 0 {
		keep = DefaultRingKeep
	}
	if maxEvents <= 0 {
		maxEvents = DefaultRingMaxEvents
	}
	r := &Ring{keep: keep, maxEvents: maxEvents}
	for i := range r.shards {
		r.shards[i].open = make(map[uint64]*ringGroup)
	}
	r.done.index = make(map[uint64]*ringGroup)
	return r
}

// Event implements Recorder.
func (r *Ring) Event(e Event) {
	if e.TraversalID == 0 {
		r.ignored.Add(1)
		return
	}
	// root_done completes too: a root whose engine failed before
	// traversal_start has only its dispatch bracket.
	complete := e.Kind == KindTraversalEnd || e.Kind == KindPlanEnd || e.Kind == KindRootDone
	sh := &r.shards[e.TraversalID%ringShards]
	sh.mu.Lock()
	g := sh.open[e.TraversalID]
	if g == nil {
		// Events can trail the group's completion: RunMany's root_done
		// bracket lands after the engine's traversal_end, and the
		// resilient ladder's sim timeline starts after the real
		// traversal ended. Append them to the retained group instead of
		// reopening — a reopened stub would never complete and would
		// accumulate forever in a long-running service.
		r.done.Lock()
		if dg := r.done.index[e.TraversalID]; dg != nil {
			if len(dg.events) < r.maxEvents {
				dg.events = append(dg.events, e)
			} else {
				r.truncated.Add(1)
			}
			r.done.Unlock()
			sh.mu.Unlock()
			return
		}
		r.done.Unlock()
		if complete {
			// A completion event with neither an open nor a retained
			// group trails a traversal that was already evicted. As a
			// group of its own it would retire at once and evict a
			// complete traversal, so it is dropped and counted as
			// ignored.
			sh.mu.Unlock()
			r.ignored.Add(1)
			return
		}
		g = &ringGroup{id: e.TraversalID}
		sh.open[e.TraversalID] = g
	}
	if len(g.events) < r.maxEvents {
		g.events = append(g.events, e)
	} else {
		g.truncated++
	}
	if !g.haveWall && !e.Wall.IsZero() {
		g.firstWall, g.haveWall = e.Wall, true
	}
	if complete {
		delete(sh.open, e.TraversalID)
	}
	sh.mu.Unlock()
	if !complete {
		return
	}
	if g.truncated > 0 {
		r.truncated.Add(g.truncated)
	}
	r.done.Lock()
	r.done.groups = append(r.done.groups, g)
	r.done.index[g.id] = g
	if len(r.done.groups) > r.keep {
		evict := len(r.done.groups) - r.keep
		for _, old := range r.done.groups[:evict] {
			if r.done.index[old.id] == old {
				delete(r.done.index, old.id)
			}
		}
		n := copy(r.done.groups, r.done.groups[evict:])
		clear(r.done.groups[n:])
		r.done.groups = r.done.groups[:n]
		r.evicted.Add(uint64(evict))
	}
	r.done.Unlock()
}

// snapshot collects retained groups plus copies of still-open ones,
// ordered for replay: groups without wall instants (pure simulated
// timelines, whose timestamps are on the simulated clock) first, then
// by first wall instant, so a dump lists traversals in the order they
// started whatever order they finished in.
func (r *Ring) snapshot() []*ringGroup {
	r.done.Lock()
	groups := make([]*ringGroup, 0, len(r.done.groups))
	for _, g := range r.done.groups {
		// Copy: retained groups can still receive trailing events
		// (dispatch brackets, sim timelines) while we replay.
		groups = append(groups, &ringGroup{id: g.id, firstWall: g.firstWall, haveWall: g.haveWall,
			events: append([]Event(nil), g.events...)})
	}
	r.done.Unlock()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, g := range sh.open {
			cp := &ringGroup{id: g.id, firstWall: g.firstWall, haveWall: g.haveWall,
				events: append([]Event(nil), g.events...)}
			groups = append(groups, cp)
		}
		sh.mu.Unlock()
	}
	sort.SliceStable(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if a.haveWall != b.haveWall {
			return !a.haveWall
		}
		return a.firstWall.Before(b.firstWall)
	})
	return groups
}

// DumpTo replays every retained (and still-open) traversal into rec,
// each group contiguous, and returns the number of groups replayed.
// Safe to call while recording continues; events arriving during the
// dump may or may not be included.
func (r *Ring) DumpTo(rec Recorder) int {
	rec = OrNop(rec)
	groups := r.snapshot()
	for _, g := range groups {
		for _, e := range g.events {
			rec.Event(e)
		}
	}
	return len(groups)
}

// WriteTrace dumps the retained traversals as a complete Chrome trace
// file to w — the flight-recorder dump format (see OBSERVABILITY.md).
func (r *Ring) WriteTrace(w io.Writer) error {
	tw := NewTraceWriter(w)
	r.DumpTo(tw)
	return tw.Close()
}

// Stats reports the retention counters.
func (r *Ring) Stats() RingStats {
	var open int
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		open += len(sh.open)
		sh.mu.Unlock()
	}
	r.done.Lock()
	retained := len(r.done.groups)
	r.done.Unlock()
	return RingStats{
		Retained:  retained,
		Open:      open,
		Evicted:   r.evicted.Load(),
		Truncated: r.truncated.Load(),
		Ignored:   r.ignored.Load(),
	}
}
