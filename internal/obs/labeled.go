package obs

import "strconv"

// RegistryRecorder is the event stream's aggregator: one instance
// folds the events of one engine into Registry cells. The dimensional
// contract is honored by construction — every (engine, kind), (engine,
// dir) and (engine, rank) tuple the recorder will ever touch is
// interned in NewRegistryRecorder, so Event is nothing but atomic adds
// on pre-resolved cells: 0 allocs/op, gated by
// TestRegistryRecorderAllocs and the "labeled" mode of
// BenchmarkRunManyRecorderOverhead.
type RegistryRecorder struct {
	events     [numKinds]*Cell // indexed by Kind
	discovered [2]*Cell        // indexed by Direction (td, bu)
	frontier   [2]*Cell        // histogram of per-level |V|cq
	levelWall  [2]*Cell        // histogram of per-level wall seconds
	scans      *Cell
	grains     *Cell
	failed     *Cell
	reused     *Cell
	planSim    *Cell
	handoff    *Cell
	checkpoint *Cell
	ghosts     *Cell
	rankBytes  []*Cell // exchange bytes per rank, when WithRanks ran

	// engine and rankFamily let WithRanks intern late (rank count is
	// known at plan time, after construction).
	engine     string
	rankFamily *Family
}

// Direction label values.
const (
	dirTDLabel = "td"
	dirBULabel = "bu"
)

// NewRegistryRecorder registers the engine-level families on reg (a
// no-op when another recorder already did) and interns the cells for
// one engine label. Construct once per engine, at wiring time.
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
	}
	events := reg.Counter("crossbfs_engine_events_total",
		"Telemetry events, by engine and event kind.", LabelEngine, LabelKind)
	for k := range rr.events {
		rr.events[k] = events.With(engine, Kind(k).String())
	}
	disc := reg.Counter("crossbfs_engine_discovered_total",
		"Vertices discovered across levels, by engine and direction.", LabelEngine, LabelDir)
	frontier := reg.Histogram("crossbfs_engine_frontier_vertices",
		"Per-level frontier size |V|cq, by engine and direction.", SizeBuckets(), LabelEngine, LabelDir)
	wall := reg.Histogram("crossbfs_engine_level_seconds",
		"Per-level wall time, by engine and direction.", LatencyBuckets(), LabelEngine, LabelDir)
	for i, dir := range []string{dirTDLabel, dirBULabel} {
		rr.discovered[i] = disc.With(engine, dir)
		rr.frontier[i] = frontier.With(engine, dir)
		rr.levelWall[i] = wall.With(engine, dir)
	}
	return rr
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
	rr.events[e.Kind].Inc()
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
		d := 0
		if e.Dir == BottomUp {
			d = 1
			// Top-down levels test entries too (the point kernel's
			// Scans); this series counts the bottom-up ones.
			rr.scans.Add(float64(e.Scans))
		}
		rr.discovered[d].Add(float64(e.Discovered))
		rr.grains.Add(float64(e.Grains))
		rr.frontier[d].Observe(float64(e.FrontierVertices))
		rr.levelWall[d].Observe(e.WallDur.Seconds())
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
