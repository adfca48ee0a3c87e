// Package obs is the observability layer of the cross-architecture BFS
// stack: a zero-alloc-on-hot-path event stream that makes per-level
// behaviour — frontier sizes, edges scanned per direction, where the
// top-down/bottom-up switch lands, retries/replans/faults, device
// handoffs — visible while a run is in flight, instead of only as
// end-of-run aggregates.
//
// The paper's whole contribution hinges on per-level visibility
// (Fig. 4's |V|cq/|E|cq switch quantities, Table IV's per-level
// breakdown), and the ROADMAP's production north star demands the
// telemetry a serving stack would have. This package provides both
// through one seam: the Recorder interface. Emitters (the BFS engines
// in internal/bfs, the simulator and resilient executor in
// internal/core, the RunMany dispatcher) publish flat Event values;
// consumers aggregate (RegistryRecorder: labeled counters and
// histograms in a Registry, rendered as Prometheus text exposition or
// as a flat series-to-value map) or export (TraceWriter: Chrome
// trace-event JSON for chrome://tracing and Perfetto).
//
// Layering: obs imports nothing from the layers it observes, so every
// package in the stack can import it without cycles. Quantities that
// have typed homes elsewhere (bfs.Direction, archsim.Arch) appear here
// as primitives (Direction, device-name strings).
//
// Hot-path contract:
//
//   - An Event is a flat value struct — no pointers, no slices — so
//     emitting one is a stack copy, never a heap allocation.
//   - Nop is the default recorder; emitting to it is a dynamic call
//     that discards the value. The steady-state 0 allocs/op gate
//     (bfs.TestRunAllocsSteadyState, BenchmarkRunNopRecorder) holds
//     with Nop attached.
//   - Live(rec) lets emitters skip work that exists only to fill
//     events (wall-clock reads, |E|cq sums a policy did not ask for).
//   - Any string placed in an Event on a hot path must be static or
//     already-allocated (engine names, device names); per-event
//     formatting belongs in consumers.
//
// Concurrency contract: one Recorder may be shared by many concurrent
// traversals (RunMany fans a whole batch into a single recorder), so
// implementations must be safe for concurrent Event calls. Events of
// one traversal share a TraversalID; the traversal-lane events
// (start/level/switch/end, collective) are emitted in step order by a
// single goroutine, while the per-rank sharded events (exchange,
// ghost-update) ride their own lanes and may be emitted concurrently
// by the rank goroutines. Events of different traversals interleave
// arbitrarily. See OBSERVABILITY.md for the full taxonomy and ordering
// guarantees.
package obs

import (
	"sync/atomic"
	"time"
)

// Kind discriminates telemetry events.
type Kind uint8

const (
	// KindTraversalStart opens a real traversal: Root, Engine, Total*,
	// Reused (workspace recycled vs fresh), Wall.
	KindTraversalStart Kind = iota
	// KindLevel reports one completed expansion step of a real
	// traversal: Step, Dir, FrontierVertices, FrontierEdges,
	// Discovered, Unvisited, Scans, Grains, Workers, Wall, WallDur.
	KindLevel
	// KindSwitch marks a direction change between consecutive steps of
	// a real traversal (Dir is the new direction, Step the first step
	// run in it).
	KindSwitch
	// KindTraversalEnd closes a real traversal: Discovered carries the
	// reachable-vertex count, Scans the traversed-edge count, WallDur
	// the whole traversal; Detail is "" on success or an error string.
	KindTraversalEnd
	// KindRootDispatch marks a RunMany worker claiming one root:
	// Root, Index, Workers (the claiming worker id).
	KindRootDispatch
	// KindRootDone marks the claimed root's delivery (or failure, with
	// Detail set): Root, Index, WallDur.
	KindRootDone
	// KindPlanStart opens a simulated (priced) timeline: Engine is the
	// plan name.
	KindPlanStart
	// KindSimStep is one priced expansion step on a modeled device:
	// Step, Dir, Device, SimStart, SimDur (kernel seconds).
	KindSimStep
	// KindHandoff is a cross-device migration of the traversal state:
	// From, Device (target), Bytes, SimStart, SimDur (link seconds).
	KindHandoff
	// KindPlanEnd closes a simulated timeline: SimDur is the plan's
	// total priced seconds.
	KindPlanEnd
	// KindRetry reports a dropped transfer re-attempted by the
	// resilient ladder (Device, Step, Detail).
	KindRetry
	// KindReplan reports a placement change forced by a fault
	// (Device, Step, Detail).
	KindReplan
	// KindFault reports any other fault event the ladder handled or
	// died on: slowdowns and fatal rungs (Device, Step, Detail).
	KindFault
	// KindExchangeStart opens one rank's per-level frontier exchange in
	// a sharded traversal: Step, Dir, Index (rank), Workers (total
	// ranks), Wall. Exchange events ride per-rank lanes, so unlike the
	// traversal's own events they may be emitted concurrently by the
	// rank goroutines.
	KindExchangeStart
	// KindExchangeEnd closes the rank's exchange: Step, Dir, Index
	// (rank), Bytes (payload this rank contributed), Wall, WallDur.
	KindExchangeEnd
	// KindCollective reports the per-level all-reduce of a sharded
	// traversal — the global switch decision: Step, Dir (the direction
	// chosen for this step), FrontierVertices/FrontierEdges/Unvisited
	// (global sums), Workers (ranks), Wall. Emitted once per step by
	// the reduction leader.
	KindCollective
	// KindGhostUpdate reports a rank applying remote top-down claims to
	// vertices it owns: Step, Index (rank), Scans (claims received),
	// Discovered (claims that won), Bytes, Wall.
	KindGhostUpdate
	// KindRankLost reports a sharded rank detected as failed (injected
	// crash, exhausted exchange retries, or watchdog-fenced straggler):
	// Step (level being traversed), Index (the dead rank), Workers
	// (survivors left), Detail (cause), Wall. Emitted under the
	// barrier lock by whichever participant detected the failure.
	KindRankLost
	// KindRecoverStart opens one survivor's recovery: Step (the level
	// about to be replayed), Index (rank), Wall. Per-rank lane; may be
	// emitted concurrently by the surviving rank goroutines.
	KindRecoverStart
	// KindRecoverEnd closes the survivor's recovery: Step, Index
	// (rank), Scans (frontier vertices restored from checkpoints),
	// Wall, WallDur.
	KindRecoverEnd
	// KindCheckpoint reports a rank writing its per-level frontier
	// checkpoint deltas: Step (the level the checkpoint can replay),
	// Index (rank), Grains (segments covered), Bytes (total encoded
	// delta size), Wall. Per-rank lane.
	KindCheckpoint
)

// numKinds counts the event kinds: KindCheckpoint is the last.
const numKinds = int(KindCheckpoint) + 1

func (k Kind) String() string {
	switch k {
	case KindTraversalStart:
		return "traversal_start"
	case KindLevel:
		return "level"
	case KindSwitch:
		return "switch"
	case KindTraversalEnd:
		return "traversal_end"
	case KindRootDispatch:
		return "root_dispatch"
	case KindRootDone:
		return "root_done"
	case KindPlanStart:
		return "plan_start"
	case KindSimStep:
		return "sim_step"
	case KindHandoff:
		return "handoff"
	case KindPlanEnd:
		return "plan_end"
	case KindRetry:
		return "retry"
	case KindReplan:
		return "replan"
	case KindFault:
		return "fault"
	case KindExchangeStart:
		return "exchange_start"
	case KindExchangeEnd:
		return "exchange_end"
	case KindCollective:
		return "collective"
	case KindGhostUpdate:
		return "ghost_update"
	case KindRankLost:
		return "rank_lost"
	case KindRecoverStart:
		return "recover_start"
	case KindRecoverEnd:
		return "recover_end"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return "unknown"
	}
}

// Direction mirrors bfs.Direction without importing it: 0 is top-down,
// 1 is bottom-up, DirNone marks events with no direction payload.
type Direction int8

const (
	TopDown  Direction = 0
	BottomUp Direction = 1
	DirNone  Direction = -1
)

func (d Direction) String() string {
	switch d {
	case TopDown:
		return "TD"
	case BottomUp:
		return "BU"
	default:
		return ""
	}
}

// Event is one telemetry record. It is a flat value struct by design:
// emitting an event is a stack copy (zero heap allocations), and a
// recorder shared across goroutines can never observe a torn event —
// each call receives its own copy. Which fields are meaningful depends
// on Kind (see the Kind constants); unused fields are zero.
type Event struct {
	Kind Kind
	// TraversalID groups the events of one traversal or one simulated
	// plan timeline. IDs are process-unique (NextTraversalID), so
	// events from concurrent RunMany roots sharing a recorder can be
	// demultiplexed.
	TraversalID uint64
	// Root is the traversal's source vertex; Index its position in a
	// RunMany batch.
	Root  int32
	Index int32
	// Step is the paper's 1-based level number.
	Step int32
	// Dir is the direction of the step (DirNone when not applicable).
	Dir Direction

	// Per-level work counts (KindLevel), mirroring bfs.StepInfo plus
	// the step outcome.
	FrontierVertices int64
	FrontierEdges    int64
	Discovered       int64
	Unvisited        int64
	Scans            int64
	// Grains and Workers are what the level dispatcher ran for the
	// step: how many grain-sized blocks a fan-out split the level into
	// and how many workers claimed them, or 1 and 1 for a level that
	// ran its serial kernel inline. The sharded engine reports its
	// rank count in both.
	Grains  int64
	Workers int32

	// Reused reports (on KindTraversalStart) whether the traversal ran
	// in a caller-supplied (recycled) workspace rather than a fresh
	// one-shot allocation.
	Reused bool

	// Wall-clock fields for real executions. Wall is the event's start
	// instant, WallDur its duration (levels, whole traversals).
	Wall    time.Time
	WallDur time.Duration

	// Simulated-clock fields for priced executions, in modeled
	// seconds from the plan timeline's origin.
	SimStart float64
	SimDur   float64

	// Identity strings. These must be static or long-lived — engine
	// names, archsim device names — never formatted per event on a hot
	// path. Bytes is the payload size of a KindHandoff.
	Engine string
	Device string
	From   string
	Bytes  int64
	// Detail carries human-readable context on cold paths only
	// (fault actions, error strings).
	Detail string
}

// Recorder receives telemetry events. Implementations must be safe for
// concurrent use by multiple goroutines: RunMany shares one recorder
// across every in-flight root, and the parallel kernels' coordinating
// goroutines emit concurrently with the dispatcher. Event must not
// block on the hot path (buffer or drop instead) and must not retain
// the event past the call (it receives a copy, so retention is safe
// but copying into owned storage is the contract).
type Recorder interface {
	Event(e Event)
}

// nop discards every event.
type nop struct{}

func (nop) Event(Event) {}

// Nop is the default recorder: it discards events and costs one
// dynamic call per emission — no allocations, no synchronization.
var Nop Recorder = nop{}

// OrNop returns rec, or Nop when rec is nil, so emitters can hold an
// always-callable recorder without nil checks at every site.
func OrNop(rec Recorder) Recorder {
	if rec == nil {
		return Nop
	}
	return rec
}

// Live reports whether rec actually consumes events. Emitters use it
// to gate work that exists only to fill events — wall-clock reads,
// frontier-edge sums a policy did not ask for — keeping the Nop path
// identical to no instrumentation at all.
func Live(rec Recorder) bool {
	return rec != nil && rec != Nop
}

// traversalID is the process-wide ID spring for NextTraversalID.
var traversalID atomic.Uint64

// NextTraversalID returns a process-unique ID for one traversal's (or
// one simulated plan timeline's) event group. Emitters draw an ID only
// when a live recorder is attached; ID 0 therefore never appears in a
// trace and can be used as "unattributed".
func NextTraversalID() uint64 { return traversalID.Add(1) }

// multi fans events out to several recorders in order.
type multi []Recorder

func (m multi) Event(e Event) {
	for _, r := range m {
		r.Event(e)
	}
}

// Multi returns a recorder that forwards every event to each non-nil,
// non-Nop recorder in recs. With zero live recorders it returns Nop
// (so Live stays false and emitters skip event-only work); with one it
// returns that recorder unwrapped.
func Multi(recs ...Recorder) Recorder {
	live := make(multi, 0, len(recs))
	for _, r := range recs {
		if Live(r) {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return live
}
