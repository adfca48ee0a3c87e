// Command bfsrun executes one BFS configuration on an R-MAT graph (or
// a graph file) and prints the per-level breakdown — the "step-by-step
// optimization" view of the paper's Table IV.
//
// Examples:
//
//	bfsrun -scale 17 -edgefactor 16 -plan all
//	bfsrun -scale 17 -plan cputd+gpucb -m1 64 -n1 64 -m2 64 -n2 64
//	bfsrun -graph g.csr -plan gpucb -m2 32 -n2 32
//	bfsrun -scale 17 -plan cputd+gpucb -faults 'crash:KeplerK20x@4' -timeout 30s
//	bfsrun -scale 16 -plan cputd+gpucb -trace out.json   # open in ui.perfetto.dev
//	bfsrun -scale 20 -plan all -sample 8 -flightrec flight.json    # last traversals only
//	bfsrun -scale 20 -plan all -pprof localhost:6060 -cpuprofile cpu.pb.gz -metrics-out m.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/fault"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
)

// config carries every knob of one bfsrun invocation so tests can
// drive run() without a flag set.
type config struct {
	scale      int
	edgeFactor int
	seed       uint64
	graphPath  string
	source     int
	planName   string
	m1, n1     float64
	m2, n2     float64
	perLevel   bool
	showCounts bool
	// timeout bounds the whole run (0 = none); the traversal checks
	// the deadline at every level boundary.
	timeout time.Duration
	// faults is a fault-schedule spec (see fault.Parse); when set the
	// plans are priced with the resilient simulator and the timing
	// report includes retries, replans, and the fault log.
	faults    string
	faultSeed uint64
	// tracePath, when set, writes the run's telemetry (real per-level
	// events from the reference traversal plus simulated per-step
	// timelines from every priced plan) to a Chrome trace-event JSON
	// file for chrome://tracing or Perfetto.
	tracePath string
	// sampleK keeps 1-in-K traversals (whole) in the trace sinks; 0 or 1
	// keeps everything. Metrics stay unsampled — counters are always-on.
	sampleK int
	// flightRec retains the last few traversals in an in-memory ring and
	// dumps them to this file at exit and on SIGQUIT.
	flightRec string
	// metricsOut writes the registry's flat series-to-value view as
	// JSON to this file.
	metricsOut string
	// metrics prints the registry's exposition page after the run.
	metrics bool
	// pprofAddr starts an HTTP server with /debug/pprof, /debug/vars,
	// and /metrics while the run executes.
	pprofAddr string
	// cpuProfile writes a CPU profile covering the whole run.
	cpuProfile string
	// shards, when > 0, also runs the partitioned engine for real with
	// that many ranks and reports the per-level exchanged bytes priced
	// through the selected fabric.
	shards int
	// fabric selects the interconnect model pricing the sharded
	// exchanges: smp, pcie, or eth10g.
	fabric string
	// chaos runs the deterministic chaos smoke suite instead of a
	// normal traversal: fixed rank-fault scenarios on small graphs,
	// each checked against the serial reference, nonzero exit on any
	// mismatch. Used by `make chaos`.
	chaos bool
}

func main() {
	var cfg config
	flag.IntVar(&cfg.scale, "scale", 16, "R-MAT SCALE (log2 vertices) when generating")
	flag.IntVar(&cfg.edgeFactor, "edgefactor", 16, "R-MAT edge factor when generating")
	flag.Uint64Var(&cfg.seed, "seed", 1, "R-MAT seed")
	flag.StringVar(&cfg.graphPath, "graph", "", "load a CSR graph file instead of generating")
	flag.IntVar(&cfg.source, "source", -1, "source vertex (-1 = first non-isolated)")
	flag.StringVar(&cfg.planName, "plan", "all", "plan: gputd, gpubu, gpucb, cputd, cpubu, cpucb, miccb, cputd+gpubu, cputd+gpucb, or 'all'")
	flag.Float64Var(&cfg.m1, "m1", 64, "host/cross M threshold")
	flag.Float64Var(&cfg.n1, "n1", 64, "host/cross N threshold")
	flag.Float64Var(&cfg.m2, "m2", 64, "coprocessor M threshold")
	flag.Float64Var(&cfg.n2, "n2", 64, "coprocessor N threshold")
	flag.BoolVar(&cfg.perLevel, "levels", true, "print per-level timings")
	flag.BoolVar(&cfg.showCounts, "counts", false, "print per-level work counts (|V|cq, |E|cq, scans)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	flag.StringVar(&cfg.faults, "faults", "", "fault schedule, e.g. 'crash:KeplerK20x@4;transient:0.1'")
	flag.Uint64Var(&cfg.faultSeed, "faultseed", 1, "seed for transient-fault draws")
	flag.StringVar(&cfg.tracePath, "trace", "", "write Chrome trace-event JSON to this file (view in Perfetto)")
	flag.IntVar(&cfg.sampleK, "sample", 0, "keep 1-in-K traversals (whole) in trace sinks; 0 keeps all")
	flag.StringVar(&cfg.flightRec, "flightrec", "", "retain the last traversals in memory; dump to this file at exit and on SIGQUIT")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write the final metric series as one flat JSON object to this file")
	flag.BoolVar(&cfg.metrics, "metrics", false, "print the metric families (Prometheus text exposition) after the run")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve /debug/pprof, /debug/vars, and /metrics on this address during the run")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.IntVar(&cfg.shards, "shards", 0, "also run the partitioned engine with this many ranks (0 = off)")
	flag.StringVar(&cfg.fabric, "fabric", "smp", "fabric model pricing sharded exchanges: smp, pcie, eth10g")
	flag.BoolVar(&cfg.chaos, "chaos", false, "run the deterministic rank-fault chaos smoke suite and exit")
	flag.Parse()

	if err := run(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bfsrun:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	if cfg.chaos {
		return runChaos(ctx, cfg)
	}
	// Validate the cheap inputs (plan name, fault spec) before paying
	// for graph generation.
	plans, err := selectPlans(cfg.planName, cfg.m1, cfg.n1, cfg.m2, cfg.n2)
	if err != nil {
		return err
	}
	var sched *fault.Schedule
	if cfg.faults != "" {
		sched, err = fault.Parse(cfg.faults, cfg.faultSeed)
		if err != nil {
			return err
		}
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	tel, err := startTelemetry(cfg)
	if err != nil {
		return err
	}
	defer tel.close()

	var g *graph.CSR
	if cfg.graphPath != "" {
		g, err = graph.Load(cfg.graphPath)
	} else {
		p := rmat.DefaultParams(cfg.scale, cfg.edgeFactor)
		p.Seed = cfg.seed
		g, err = rmat.Generate(p)
	}
	if err != nil {
		return err
	}

	src, err := pickSource(g, cfg.source)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d directed edges, source %d\n", g.NumVertices(), g.NumEdges(), src)

	ws := bfs.DefaultPool.Get(g.NumVertices())
	tr, err := bfs.TraceFrom(ctx, g, src, ws, tel.rec)
	bfs.DefaultPool.Put(ws)
	if err != nil {
		return err
	}
	fmt.Printf("traversal: depth %d, %d reachable, %d edges visited\n\n", tr.Depth(), tr.Reachable, tr.EdgesVisited)

	if cfg.showCounts {
		for _, s := range tr.Steps {
			fmt.Printf("step %d: |V|cq=%d |E|cq=%d discovered=%d unvisited=%d buScans=%d meanScan=%.1f\n",
				s.Step, s.FrontierVertices, s.FrontierEdges, s.Discovered, s.UnvisitedVertices, s.BottomUpScans, s.MeanScan())
		}
		fmt.Println()
	}

	link := archsim.PCIe()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	var baseline float64
	for _, pl := range plans {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The resilient simulator re-arms the schedule itself, so one
		// schedule prices every plan with identical transient draws;
		// with no schedule it prices exactly what Simulate does. Either
		// way the recorder sees the plan's simulated timeline.
		t, err := core.SimulateResilient(tr, pl, link, core.ResilientOptions{Schedule: sched, Recorder: tel.rec})
		if err != nil {
			var fe *fault.Error
			if errors.As(err, &fe) {
				// The plan cannot survive the schedule: report it and
				// keep pricing the remaining plans.
				fmt.Fprintf(w, "%s\tFAILED\t%v\n", pl.Name(), err)
				continue
			}
			return err
		}
		if baseline == 0 {
			baseline = t.Total
		}
		fmt.Fprintf(w, "%s\ttotal %.6fs\tspeedup %.1fx\tGTEPS %.3f", t.Plan, t.Total, baseline/t.Total, t.GTEPS())
		if t.Degraded() {
			fmt.Fprintf(w, "\tretries %d replans %d", t.Retries, t.Replans)
		}
		fmt.Fprintln(w)
		for _, f := range t.Faults {
			fmt.Fprintf(w, "\tfault\t%s\n", f)
		}
		if cfg.perLevel {
			for _, st := range t.Steps {
				fmt.Fprintf(w, "\tlevel %d\t%s %s\t%.6fs", st.Step, st.Kind, st.Dir, st.Kernel)
				if st.Transfer > 0 {
					fmt.Fprintf(w, "\t(+%.6fs transfer)", st.Transfer)
				}
				fmt.Fprintln(w)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if cfg.shards > 0 {
		if err := runSharded(ctx, cfg, g, src, sched, tel.rec); err != nil {
			return err
		}
	}
	if err := tel.close(); err != nil {
		return err
	}
	if cfg.metrics {
		fmt.Println()
		if err := tel.reg.WriteExposition(os.Stdout); err != nil {
			return err
		}
	}
	if cfg.metricsOut != "" {
		f, err := os.Create(cfg.metricsOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		werr := enc.Encode(tel.reg.Snapshot())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	if cfg.tracePath != "" {
		fmt.Printf("trace written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", cfg.tracePath)
	}
	if cfg.flightRec != "" {
		fmt.Printf("flight recorder dump written to %s (also on SIGQUIT)\n", cfg.flightRec)
	}
	return nil
}

// telemetry bundles the run's optional observers (trace file, sampler,
// flight recorder, metrics, profiling server, CPU profile) behind one
// Recorder and one teardown.
type telemetry struct {
	rec       obs.Recorder
	reg       *obs.Registry
	tw        *obs.TraceWriter
	traceF    *os.File
	ring      *obs.Ring
	flightRec string
	sigC      chan os.Signal
	profF     *os.File
}

// serveOnce guards the process-global side effects of -pprof (expvar
// publication and default-mux handlers register once per process), so
// tests can drive run() repeatedly.
var serveOnce sync.Once

func startTelemetry(cfg config) (*telemetry, error) {
	tel := &telemetry{rec: obs.Nop}
	// Trace sinks are grouped so -sample gates them as one unit: a kept
	// traversal lands whole in EVERY sink, a dropped one in none.
	var traceRecs []obs.Recorder
	if cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return nil, err
		}
		tel.traceF = f
		tel.tw = obs.NewTraceWriter(f)
		traceRecs = append(traceRecs, tel.tw)
	}
	if cfg.flightRec != "" {
		tel.ring = obs.NewRing(obs.DefaultRingKeep, obs.DefaultRingMaxEvents)
		tel.flightRec = cfg.flightRec
		traceRecs = append(traceRecs, tel.ring)
		// SIGQUIT dumps the ring post hoc without killing the run — the
		// flight-recorder contract for a wedged or misbehaving process.
		tel.sigC = make(chan os.Signal, 1)
		signal.Notify(tel.sigC, syscall.SIGQUIT)
		go func(ring *obs.Ring, path string, c chan os.Signal) {
			for range c {
				if err := dumpRing(ring, path); err != nil {
					fmt.Fprintln(os.Stderr, "bfsrun: flight-recorder dump:", err)
				} else {
					fmt.Fprintln(os.Stderr, "bfsrun: flight recorder dumped to", path)
				}
			}
		}(tel.ring, tel.flightRec, tel.sigC)
	}
	var recs []obs.Recorder
	if len(traceRecs) > 0 {
		traced := obs.Multi(traceRecs...)
		if cfg.sampleK > 1 {
			// Seeded from -seed so a run is reproducible end to end.
			traced = obs.NewSampler(traced, cfg.sampleK, cfg.seed)
		}
		recs = append(recs, traced)
	}
	if cfg.metrics || cfg.metricsOut != "" || cfg.pprofAddr != "" {
		// One recorder for the whole run, labeled with the plan: it
		// sees the reference traversal, every priced plan and the
		// sharded run alike.
		tel.reg = obs.NewRegistry()
		recs = append(recs, obs.NewRegistryRecorder(tel.reg, cfg.planName).WithRanks(cfg.shards))
	}
	tel.rec = obs.Multi(recs...)
	if cfg.pprofAddr != "" {
		reg := tel.reg
		serveOnce.Do(func() {
			expvar.Publish("crossbfs", expvar.Func(func() any { return reg.Snapshot() }))
			http.Handle("/metrics", reg)
		})
		go func() {
			// net/http/pprof registered /debug/pprof on the default mux.
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "bfsrun: pprof server:", err)
			}
		}()
		fmt.Printf("serving http://%s/debug/pprof, /debug/vars, /metrics\n", cfg.pprofAddr)
	}
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			tel.close()
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			tel.close()
			return nil, err
		}
		tel.profF = f
	}
	return tel, nil
}

// close is idempotent: run() calls it explicitly to surface flush
// errors, and defers it to cover early returns.
func (t *telemetry) close() error {
	if t.profF != nil {
		pprof.StopCPUProfile()
		t.profF.Close()
		t.profF = nil
	}
	var err error
	if t.tw != nil {
		err = t.tw.Close()
		if cerr := t.traceF.Close(); err == nil {
			err = cerr
		}
		t.tw, t.traceF = nil, nil
	}
	if t.sigC != nil {
		signal.Stop(t.sigC)
		close(t.sigC)
		t.sigC = nil
	}
	if t.ring != nil {
		if cerr := dumpRing(t.ring, t.flightRec); err == nil {
			err = cerr
		}
		t.ring = nil
	}
	return err
}

// dumpRing writes the flight recorder's retained traversals to path as
// a standalone Chrome trace.
func dumpRing(ring *obs.Ring, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := ring.WriteTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runSharded executes the partitioned engine for real and prints the
// per-level exchange volumes priced through the selected fabric — the
// communication-vs-computation view of the 1D-sharded traversal. With
// a -faults schedule the ranks run under injection: crashes, lag, and
// dropped collectives hit the exchange seams, survivors recover from
// checkpoints, and the report carries the rank fault log and a
// RECOVERED (or FAILED) verdict instead of assuming a clean run.
func runSharded(ctx context.Context, cfg config, g *graph.CSR, src int32, sched *fault.Schedule, rec obs.Recorder) error {
	fab, err := pickFabric(cfg.fabric, cfg.shards)
	if err != nil {
		return err
	}
	plan := core.ShardedPlan{
		Device: archsim.SandyBridge(),
		Ranks:  cfg.shards,
		Fabric: fab,
		M:      cfg.m1,
		N:      cfg.n1,
	}
	start := time.Now()
	res, timing, err := core.ExecuteShardedResilient(ctx, g, src, plan, nil,
		core.ResilientOptions{Schedule: sched, Recorder: rec})
	if err != nil {
		var fe *fault.Error
		if errors.As(err, &fe) {
			// Even the single-device fallback could not finish: report
			// the failed row the way the plan table does and move on.
			fmt.Printf("\nsharded: %d ranks over %s\tFAILED\t%v\n", cfg.shards, fab.Name, err)
			return nil
		}
		return err
	}
	wall := time.Since(start)
	fmt.Printf("\nsharded: %d ranks over %s, wall %.6fs, modeled %.6fs (%.6fs on the fabric), GTEPS %.3f\n",
		cfg.shards, fab.Name, wall.Seconds(), timing.Total, timing.Transfers, timing.GTEPS())
	if rv := res.Recovery; rv.RanksLost > 0 || rv.ExchangeRetries > 0 {
		fmt.Printf("\tRECOVERED: %d rank(s) lost, %d recoveries, %d exchange retries, %dB checkpointed\n",
			rv.RanksLost, rv.Recoveries, rv.ExchangeRetries, rv.CheckpointBytes)
	}
	for _, f := range timing.Faults {
		fmt.Printf("\tfault: %s\n", f)
	}
	if !cfg.perLevel {
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, ex := range res.Exchanges {
		st := timing.Steps[i]
		fmt.Fprintf(w, "\tlevel %d\t%s\tdelta %dB\tghosts %dB (%d/%d applied)\t%.6fs kernel\t%.6fs exchange\n",
			ex.Step, ex.Dir, ex.FrontierBytes, ex.GhostBytes, ex.GhostApplied, ex.GhostSent,
			st.Kernel, st.Transfer)
	}
	return w.Flush()
}

// runChaos is the -chaos smoke suite: a fixed matrix of rank-fault
// scenarios on a small R-MAT graph, every surviving traversal checked
// level-for-level against the serial reference and through the Graph
// 500 validator. Scenarios are deterministic (fixed seeds, scheduled
// crash levels), so a failure here is a recovery-protocol bug, not
// flakiness. Any mismatch makes the run return an error (exit 1).
func runChaos(ctx context.Context, cfg config) error {
	p := rmat.DefaultParams(10, 8)
	p.Seed = cfg.seed
	g, err := rmat.Generate(p)
	if err != nil {
		return err
	}
	src, err := pickSource(g, cfg.source)
	if err != nil {
		return err
	}
	ref, err := bfs.SerialEngine().Run(g, src, nil)
	if err != nil {
		return err
	}
	scenarios := []string{
		"rankcrash:1@2",
		"rankcrash:0@1",
		"rankcrash:0@2;rankcrash:2@3",
		"ranklag:1x4@2",
		"exchdrop:0.25",
		"rankcrash:1@3;exchdrop:0.2",
	}
	fmt.Printf("chaos: scale-10 R-MAT, %d vertices, source %d, %d scenarios x ranks {2,4}\n",
		g.NumVertices(), src, len(scenarios))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	failures := 0
	for _, spec := range scenarios {
		for _, ranks := range []int{2, 4} {
			sched, err := fault.Parse(spec, cfg.faultSeed)
			if err != nil {
				return err
			}
			plan := core.ShardedPlan{
				Device: archsim.SandyBridge(), Ranks: ranks,
				Fabric: archsim.SMP(ranks), M: cfg.m1, N: cfg.n1,
			}
			res, _, err := core.ExecuteShardedResilient(ctx, g, src, plan, nil,
				core.ResilientOptions{Schedule: sched})
			verdict := chaosVerdict(g, ref, res, err)
			if strings.HasPrefix(verdict, "FAIL") {
				failures++
			}
			rv := bfs.RecoveryStats{}
			if res != nil {
				rv = res.Recovery
			}
			fmt.Fprintf(w, "\t%s\tranks=%d\t%s\tlost=%d recoveries=%d retries=%d ckpt=%dB\n",
				spec, ranks, verdict, rv.RanksLost, rv.Recoveries, rv.ExchangeRetries, rv.CheckpointBytes)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("chaos: %d scenario(s) failed", failures)
	}
	fmt.Println("chaos: all scenarios recovered and matched the serial reference")
	return nil
}

// chaosVerdict grades one chaos scenario: the traversal must complete
// (recovering if it must) and agree with the serial reference exactly.
func chaosVerdict(g *graph.CSR, ref, res *bfs.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("FAIL (%v)", err)
	}
	if err := bfs.Validate(g, res); err != nil {
		return fmt.Sprintf("FAIL (validate: %v)", err)
	}
	for v := range ref.Level {
		if ref.Level[v] != res.Level[v] {
			return fmt.Sprintf("FAIL (level[%d]=%d, serial %d)", v, res.Level[v], ref.Level[v])
		}
	}
	return "OK"
}

// pickFabric maps the -fabric flag to its archsim model.
func pickFabric(name string, ranks int) (*archsim.Fabric, error) {
	switch strings.ToLower(name) {
	case "smp":
		return archsim.SMP(ranks), nil
	case "pcie":
		return archsim.PCIeFabric(ranks), nil
	case "eth10g":
		return archsim.Eth10G(ranks), nil
	default:
		return nil, fmt.Errorf("unknown fabric %q (have: smp, pcie, eth10g)", name)
	}
}

func pickSource(g *graph.CSR, requested int) (int32, error) {
	if requested >= 0 {
		if requested >= g.NumVertices() {
			return 0, fmt.Errorf("source %d out of range [0,%d)", requested, g.NumVertices())
		}
		return int32(requested), nil
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v), nil
		}
	}
	return 0, fmt.Errorf("graph has no edges")
}

func selectPlans(name string, m1, n1, m2, n2 float64) ([]core.Plan, error) {
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()
	all := []core.Plan{
		core.FixedDirection(gpu, bfs.TopDown),
		core.FixedDirection(gpu, bfs.BottomUp),
		core.Combination(gpu, m2, n2),
		core.FixedDirection(cpu, bfs.TopDown),
		core.FixedDirection(cpu, bfs.BottomUp),
		core.Combination(cpu, m1, n1),
		core.Combination(mic, m1, n1),
		core.CrossTDBU{Host: cpu, Coprocessor: gpu, M1: m1, N1: n1},
		core.CrossPlan{Host: cpu, Coprocessor: gpu, M1: m1, N1: n1, M2: m2, N2: n2},
	}
	if name == "all" {
		return all, nil
	}
	for _, pl := range all {
		if strings.EqualFold(pl.Name(), name) {
			return []core.Plan{pl}, nil
		}
	}
	names := make([]string, len(all))
	for i, pl := range all {
		names[i] = pl.Name()
	}
	return nil, fmt.Errorf("unknown plan %q (have: %s, all)", name, strings.Join(names, ", "))
}
