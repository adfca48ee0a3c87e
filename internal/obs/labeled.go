package obs

import (
	"strconv"
	"sync/atomic"
)

// RegistryRecorder is the event stream's aggregator: one instance
// folds the events of one engine into Registry cells. The per-engine
// cells and the WithRanks cells are interned at wiring time. The
// (engine, kind) and (engine, dir) cells are interned the first time
// an event adds to them, so /metrics carries only the kinds and
// directions this engine emits: a point-query recorder never shows a
// bottom-up series. After that first event, Event is nothing but
// atomic adds on resolved cells: 0 allocs/op, gated by
// TestRegistryRecorderAllocs and the "labeled" mode of
// BenchmarkRunManyRecorderOverhead.
type RegistryRecorder struct {
	events     [numKinds]atomic.Pointer[Cell] // indexed by Kind
	discovered [2]atomic.Pointer[Cell]        // indexed by Direction (td, bu)
	frontier   [2]atomic.Pointer[Cell]        // histogram of per-level |V|cq
	levelWall  [2]atomic.Pointer[Cell]        // histogram of per-level wall seconds
	scans      *Cell
	grains     *Cell
	failed     *Cell
	reused     *Cell
	planSim    *Cell
	handoff    *Cell
	checkpoint *Cell
	ghosts     *Cell
	rankBytes  []*Cell // exchange bytes per rank, when WithRanks ran

	// engine and the families let Event and WithRanks intern late.
	engine      string
	rankFamily  *Family
	eventsFam   *Family
	discFam     *Family
	frontierFam *Family
	wallFam     *Family
}

// Direction label values.
const (
	dirTDLabel = "td"
	dirBULabel = "bu"
)

// NewRegistryRecorder registers the engine-level families on reg (a
// no-op when another recorder already did) and interns the per-engine
// cells for one engine label. Construct once per engine, at wiring
// time.
func NewRegistryRecorder(reg *Registry, engine string) *RegistryRecorder {
	rr := &RegistryRecorder{
		engine: engine,
		scans: reg.Counter("crossbfs_engine_bottomup_scans_total",
			"Adjacency entries tested by bottom-up levels: one per hub probe, plus the scans "+
				"of the vertices no probe found, by engine.", LabelEngine).With(engine),
		grains: reg.Counter("crossbfs_engine_grains_total",
			"Grain blocks dispatched across levels, by engine.", LabelEngine).With(engine),
		failed: reg.Counter("crossbfs_engine_traversal_errors_total",
			"Traversals that ended with an error, by engine.", LabelEngine).With(engine),
		reused: reg.Counter("crossbfs_engine_workspace_reuses_total",
			"Traversals that ran in a recycled workspace, by engine.", LabelEngine).With(engine),
		planSim: reg.Counter("crossbfs_engine_plan_sim_seconds_total",
			"Priced seconds of completed simulated plans, by engine.", LabelEngine).With(engine),
		handoff: reg.Counter("crossbfs_engine_handoff_bytes_total",
			"Modeled payload bytes moved between devices, by engine.", LabelEngine).With(engine),
		checkpoint: reg.Counter("crossbfs_engine_checkpoint_bytes_total",
			"Encoded checkpoint delta bytes written by ranks, by engine.", LabelEngine).With(engine),
		ghosts: reg.Counter("crossbfs_engine_ghost_applied_total",
			"Remote top-down claims that won their vertex, by engine.", LabelEngine).With(engine),
		rankFamily: reg.Counter("crossbfs_engine_exchange_bytes_total",
			"Frontier-exchange payload bytes, by engine and rank.", LabelEngine, LabelRank),
		eventsFam: reg.Counter("crossbfs_engine_events_total",
			"Telemetry events, by engine and event kind.", LabelEngine, LabelKind),
		discFam: reg.Counter("crossbfs_engine_discovered_total",
			"Vertices discovered across levels, by engine and direction.", LabelEngine, LabelDir),
		frontierFam: reg.Histogram("crossbfs_engine_frontier_vertices",
			"Per-level frontier size |V|cq, by engine and direction.", SizeBuckets(), LabelEngine, LabelDir),
		wallFam: reg.Histogram("crossbfs_engine_level_seconds",
			"Per-level wall time, by engine and direction.", LatencyBuckets(), LabelEngine, LabelDir),
	}
	return rr
}

// cell returns the cell in slot, interning (engine, value) in f the
// first time. Racing first calls intern the same cell, since f holds
// one per label tuple.
func (rr *RegistryRecorder) cell(slot *atomic.Pointer[Cell], f *Family, value string) *Cell {
	if c := slot.Load(); c != nil {
		return c
	}
	c := f.With(rr.engine, value)
	slot.Store(c)
	return c
}

// WithRanks interns rank cells 0..n-1 for the sharded exchange
// counter, so KindExchangeEnd events resolve their rank without a
// lookup. Call at wiring time, before serving events.
func (rr *RegistryRecorder) WithRanks(n int) *RegistryRecorder {
	rr.rankBytes = make([]*Cell, n)
	for i := 0; i < n; i++ {
		rr.rankBytes[i] = rr.rankFamily.With(rr.engine, strconv.Itoa(i))
	}
	return rr
}

// Event counts one telemetry event under its kind, then adds the
// kind's payload (level work, priced seconds, bytes) to its series.
func (rr *RegistryRecorder) Event(e Event) {
	if int(e.Kind) >= numKinds {
		return
	}
	rr.cell(&rr.events[e.Kind], rr.eventsFam, e.Kind.String()).Inc()
	switch e.Kind {
	case KindTraversalStart:
		if e.Reused {
			rr.reused.Inc()
		}
	case KindTraversalEnd:
		if e.Detail != "" {
			rr.failed.Inc()
		}
	case KindLevel:
		d, dir := 0, dirTDLabel
		if e.Dir == BottomUp {
			d, dir = 1, dirBULabel
			// Top-down levels test entries too (the point kernel's
			// Scans); this series counts the bottom-up ones.
			rr.scans.Add(float64(e.Scans))
		}
		rr.cell(&rr.discovered[d], rr.discFam, dir).Add(float64(e.Discovered))
		rr.grains.Add(float64(e.Grains))
		rr.cell(&rr.frontier[d], rr.frontierFam, dir).Observe(float64(e.FrontierVertices))
		rr.cell(&rr.levelWall[d], rr.wallFam, dir).Observe(e.WallDur.Seconds())
	case KindPlanEnd:
		rr.planSim.Add(e.SimDur)
	case KindHandoff:
		rr.handoff.Add(float64(e.Bytes))
	case KindExchangeEnd:
		if i := int(e.Index); i >= 0 && i < len(rr.rankBytes) {
			rr.rankBytes[i].Add(float64(e.Bytes))
		}
	case KindGhostUpdate:
		rr.ghosts.Add(float64(e.Discovered))
	case KindCheckpoint:
		rr.checkpoint.Add(float64(e.Bytes))
	default:
	}
}
