package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxConcurrent = 0 // 0 resolves to GOMAXPROCS at NewServer
	DefaultQueueDepth    = 64
	DefaultDeadline      = 2 * time.Second
	DefaultMaxDeadline   = 30 * time.Second
	DefaultSampleK       = 8

	DefaultSLOPoll            = 10 * time.Second
	DefaultSLOCooldown        = 10 * time.Minute
	DefaultIncidentCPUProfile = time.Second
)

// serialCutoff is the planner's one cutoff: graphs below it run the
// serial kernel (parallel dispatch overhead dominates at that size —
// the same boundary the tuner's corpus shows).
const serialCutoff = 1 << 12

// Config tunes a Server. The zero value is serviceable: GOMAXPROCS
// execution slots, a 64-deep wait queue, a 2s default / 30s maximum
// per-request deadline, 1-in-8 trace sampling into the default-sized
// flight recorder, and the process-wide workspace pool.
type Config struct {
	// MaxConcurrent is the number of traversals executing at once; 0
	// selects GOMAXPROCS. Each in-flight traversal leases one workspace.
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for an
	// execution slot; a request beyond it is rejected with 429
	// (ErrQueueFull) instead of queueing without bound. Negative
	// disables waiting entirely (slots only).
	QueueDepth int
	// DefaultDeadline applies when a query carries no deadline_ms;
	// MaxDeadline caps what a query may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// SampleK keeps 1-in-K traversals (whole) in the flight recorder;
	// 1 keeps every traversal, 0 selects DefaultSampleK. Metrics are
	// never sampled.
	SampleK int
	// SampleSeed seeds the sampler's keep/drop hash.
	SampleSeed uint64
	// FlightKeep / FlightMaxEvents size the flight recorder ring
	// (<= 0 selects the obs defaults).
	FlightKeep      int
	FlightMaxEvents int
	// Recorder, when non-nil, receives every event the sampled sinks
	// see (after sampling). perfbench taps the engine's events through
	// it; cmd/bfsd leaves it nil.
	Recorder obs.Recorder
	// Pool supplies traversal workspaces; nil uses bfs.DefaultPool.
	Pool *bfs.WorkspacePool

	// Objectives are the serving SLOs (parse with ParseObjectives; the
	// selectors must come from that function's vocabulary). When any
	// are set, the server runs a burn-rate evaluator at SLOPoll
	// cadence and serves verdicts on /debug/slo.
	Objectives []obs.Objective
	// SLOPoll is the evaluator's tick interval; 0 selects
	// DefaultSLOPoll.
	SLOPoll time.Duration
	// SLOCooldown spaces breach captures: at most one incident bundle
	// per cooldown. 0 selects DefaultSLOCooldown.
	SLOCooldown time.Duration
	// IncidentDir is where breach captures land (one subdirectory per
	// incident: cpu.pprof, heap.pprof, flight.json, slo.json). Empty
	// disables capture — breaches still evaluate and gauge.
	IncidentDir string
	// IncidentCPUProfile is how long the breach capture profiles the
	// CPU; 0 selects DefaultIncidentCPUProfile.
	IncidentCPUProfile time.Duration
	// OnIncident, when non-nil, is called after each capture attempt
	// with the bundle directory and the capture error, if any (the
	// hook bfsd uses to log incidents).
	OnIncident func(dir string, v obs.Verdict, err error)
}

// GraphInfo describes one resident graph (the /graphs payload).
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	// Engine is the kernel the planner chose for this graph: "serial"
	// or "hybrid(64,64)".
	Engine string `json:"engine"`
	// Origin records where the graph came from: an R-MAT spec or a
	// file path.
	Origin string `json:"origin,omitempty"`
}

// servedGraph pairs a resident CSR with the engine the planner chose
// for it at registration time, plus the graph's recorder chains: the
// server-wide sampler extended with a registry recorder labeled with
// the planned engine (rec, for khop and multi) or with the point
// kernel (pointRec, for reach and path), and the per-graph query
// counters, all interned at AddGraph.
type servedGraph struct {
	info     GraphInfo
	g        *graph.CSR
	engine   bfs.Engine
	rec      obs.Recorder
	pointRec obs.Recorder
	queries  [kindCount]*obs.Cell // crossbfs_graph_queries_total{graph,kind}
}

// Server is the daemon core: resident graphs, the admission gate, the
// workspace pool, and the telemetry spine. It is safe for concurrent
// use; cmd/bfsd mounts Server.Handler behind net/http.
type Server struct {
	cfg      Config
	registry *obs.Registry
	ring     *obs.Ring
	// sampler passes 1-in-K traversals to the flight ring (and
	// Config.Recorder). Per-graph chains (servedGraph.rec) pair it with
	// the engine-labeled registry recorder, which sees every event.
	sampler *obs.Sampler
	pool    *bfs.WorkspacePool
	gate    *gate
	stats   *serveStats
	start   time.Time

	// ready is the /readyz state: explicitly armed by the embedder
	// (bfsd, once every graph is loaded) and lowered at Close, so load
	// balancers stop routing before the listener goes away.
	ready atomic.Bool

	// SLO machinery (nil/zero when no objectives are configured).
	slo             *obs.SLO
	sloStop         chan struct{}
	sloDone         chan struct{}
	incidentCell    *obs.Cell
	profiling       atomic.Bool
	lastIncidentDir atomic.Value // string

	mu     sync.RWMutex
	graphs map[string]*servedGraph

	closeMu  sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// NewServer builds an empty server; register graphs with AddGraph
// before serving queries.
func NewServer(cfg Config) *Server {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = DefaultDeadline
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = DefaultMaxDeadline
	}
	if cfg.DefaultDeadline > cfg.MaxDeadline {
		cfg.DefaultDeadline = cfg.MaxDeadline
	}
	if cfg.SampleK <= 0 {
		cfg.SampleK = DefaultSampleK
	}
	if cfg.Pool == nil {
		cfg.Pool = bfs.DefaultPool
	}
	if cfg.SLOPoll <= 0 {
		cfg.SLOPoll = DefaultSLOPoll
	}
	if cfg.SLOCooldown <= 0 {
		cfg.SLOCooldown = DefaultSLOCooldown
	}
	if cfg.IncidentCPUProfile <= 0 {
		cfg.IncidentCPUProfile = DefaultIncidentCPUProfile
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		registry: reg,
		ring:     obs.NewRing(cfg.FlightKeep, cfg.FlightMaxEvents),
		pool:     cfg.Pool,
		gate:     newGate(cfg.MaxConcurrent, cfg.QueueDepth),
		stats:    newServeStats(reg),
		graphs:   make(map[string]*servedGraph),
		start:    time.Now(),
	}
	s.lastIncidentDir.Store("")
	obs.RegisterRingGauges(reg, s.ring)
	s.gate.registerGauges(reg)
	sampled := obs.Recorder(s.ring)
	if cfg.Recorder != nil {
		sampled = obs.Multi(s.ring, cfg.Recorder)
	}
	s.sampler = obs.NewSampler(sampled, cfg.SampleK, cfg.SampleSeed)
	s.incidentCell = reg.Counter("crossbfs_incidents_total",
		"Incident bundles captured by the SLO breach hook.").With()
	if len(cfg.Objectives) > 0 {
		s.startSLO()
	}
	return s
}

// AddGraph registers g under name and plans its engine. Registering a
// duplicate name or a nil/empty graph is a configuration mistake and
// returns a *Error (callers surface it at startup, not to clients).
func (s *Server) AddGraph(name, origin string, g *graph.CSR) error {
	if name == "" {
		return badRequest("graph name must not be empty")
	}
	if g == nil || g.NumVertices() == 0 {
		return badRequest(fmt.Sprintf("graph %q is empty", name))
	}
	e := planEngine(g)
	sg := &servedGraph{
		info: GraphInfo{
			Name:     name,
			Vertices: g.NumVertices(),
			Edges:    g.NumEdges(),
			Engine:   e.Name(),
			Origin:   origin,
		},
		g:        g,
		engine:   e,
		rec:      obs.Multi(s.sampler, obs.NewRegistryRecorder(s.registry, e.Name())),
		pointRec: obs.Multi(s.sampler, obs.NewRegistryRecorder(s.registry, bfs.PointQueryEngine)),
	}
	qf := s.registry.Counter("crossbfs_graph_queries_total",
		"Queries reaching a resident graph, by graph and kind.", obs.LabelGraph, obs.LabelKind)
	for i, kind := range kindLabels {
		sg.queries[i] = qf.With(name, kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.graphs[name]; dup {
		return badRequest(fmt.Sprintf("graph %q already registered", name))
	}
	s.graphs[name] = sg
	return nil
}

// planEngine is the per-graph kernel planner: the serial reference
// below serialCutoff vertices (parallel dispatch costs more than it
// buys there), and the direction-optimizing hybrid at the repo-wide
// default (M, N) everywhere else.
func planEngine(g *graph.CSR) bfs.Engine {
	if g.NumVertices() < serialCutoff {
		return bfs.SerialEngine()
	}
	return bfs.DefaultEngine()
}

// lookup resolves a query's graph: the named graph, or the sole
// registered graph when the query names none.
func (s *Server) lookup(name string) (*servedGraph, *Error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.graphs) == 1 {
			for _, sg := range s.graphs {
				return sg, nil
			}
		}
		return nil, badRequest(fmt.Sprintf("query names no graph and the server holds %d; set \"graph\"", len(s.graphs)))
	}
	sg, ok := s.graphs[name]
	if !ok {
		return nil, unknownGraph(name)
	}
	return sg, nil
}

// Graphs lists the resident graphs in name order.
func (s *Server) Graphs() []GraphInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	infos := make([]GraphInfo, 0, len(s.graphs))
	for _, sg := range s.graphs {
		infos = append(infos, sg.info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Registry exposes the server's metric families: everything /metrics
// renders and /metrics.json flattens.
func (s *Server) Registry() *obs.Registry { return s.registry }

// SetReady arms or lowers the /readyz state. A fresh server reports
// not-ready; the embedder arms it once every graph is registered and
// the listener is up. Close lowers it again before draining.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports whether the server is accepting routed traffic.
func (s *Server) Ready() bool { return s.ready.Load() }

// SLOVerdicts returns the latest SLO evaluations (nil when no
// objectives are configured).
func (s *Server) SLOVerdicts() []obs.Verdict {
	if s.slo == nil {
		return nil
	}
	return s.slo.Verdicts()
}

// SamplerStats reports the sampler's seen/kept counters.
func (s *Server) SamplerStats() (seen, kept uint64) {
	return s.sampler.Seen(), s.sampler.Kept()
}

// begin admits one request into the in-flight set; it fails once Close
// has started so shutdown drains deterministically.
func (s *Server) begin() *Error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return shuttingDown()
	}
	s.inflight.Add(1)
	return nil
}

// Close stops admitting queries and waits for the in-flight ones to
// finish. It does not touch the HTTP listener — cmd/bfsd shuts the
// net/http server down first, then Closes the core.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	s.ready.Store(false)
	if s.sloStop != nil {
		close(s.sloStop)
		<-s.sloDone
	}
	s.inflight.Wait()
}

// deadlineFor clamps a query's requested deadline to the configured
// window: 0 selects the default, anything above MaxDeadline is capped.
func (s *Server) deadlineFor(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultDeadline
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxDeadline {
		return s.cfg.MaxDeadline
	}
	return d
}
