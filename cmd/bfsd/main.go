// Command bfsd is the BFS query daemon: it loads one or more graphs at
// startup, plans a kernel per graph, and serves reachability, parent
// path, k-hop, and multi-source queries over HTTP/JSON with
// per-request deadlines, bounded admission, and the repo's standard
// telemetry (metrics page + sampled flight recorder).
//
// Examples:
//
//	bfsd -graph social=rmat:18:16 -listen :8080
//	bfsd -graph web=crawl.csr -graph roads=roads.txt
//	bfsd -graph g=rmat:14:8:42 -listen 127.0.0.1:0 -addrfile bfsd.addr
//	bfsd -graph g=rmat:16:16 -sample 1 -deadline 500ms -queue 128
//
// The serving surface, query grammar, and failure semantics are
// documented in SERVING.md; internal/serve holds the engine-facing
// logic so it is testable without sockets.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
	"crossbfs/internal/serve"
)

// graphSpec is one -graph flag value: a name bound to an R-MAT recipe
// or a file path.
type graphSpec struct {
	name string
	spec string
}

// graphSpecs collects repeated -graph flags.
type graphSpecs []graphSpec

func (g *graphSpecs) String() string {
	parts := make([]string, len(*g))
	for i, s := range *g {
		parts[i] = s.name + "=" + s.spec
	}
	return strings.Join(parts, ",")
}

func (g *graphSpecs) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" || spec == "" {
		return fmt.Errorf("want name=rmat:SCALE:EF[:SEED] or name=path, got %q", v)
	}
	*g = append(*g, graphSpec{name: name, spec: spec})
	return nil
}

// sloSpecs collects repeated -slo flags.
type sloSpecs []string

func (s *sloSpecs) String() string { return strings.Join(*s, ",") }

func (s *sloSpecs) Set(v string) error {
	if _, err := serve.ParseObjectives([]string{v}); err != nil {
		return err
	}
	*s = append(*s, v)
	return nil
}

// config carries every bfsd knob so tests can drive run() without a
// flag set or a real signal.
type config struct {
	graphs   graphSpecs
	listen   string
	addrFile string

	maxConcurrent int
	queueDepth    int
	deadline      time.Duration
	maxDeadline   time.Duration
	sampleK       int
	sampleSeed    uint64
	flightKeep    int
	flightEvents  int

	slo         sloSpecs
	sloPoll     time.Duration
	sloCooldown time.Duration
	incidentDir string
}

func parseFlags(args []string, stderr *os.File) (*config, error) {
	fs := flag.NewFlagSet("bfsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.Var(&cfg.graphs, "graph", "graph to serve, as name=rmat:SCALE:EF[:SEED] or name=path (repeatable)")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:8080", "address to listen on (:0 picks a free port)")
	fs.StringVar(&cfg.addrFile, "addrfile", "", "write the bound address to this file (for scripts using :0)")
	fs.IntVar(&cfg.maxConcurrent, "max-concurrent", 0, "traversals executing at once (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.queueDepth, "queue", serve.DefaultQueueDepth, "admission queue depth; beyond it requests get 429")
	fs.DurationVar(&cfg.deadline, "deadline", serve.DefaultDeadline, "default per-query deadline")
	fs.DurationVar(&cfg.maxDeadline, "max-deadline", serve.DefaultMaxDeadline, "cap on client-requested deadlines")
	fs.IntVar(&cfg.sampleK, "sample", serve.DefaultSampleK, "keep 1-in-K traversals in the flight recorder")
	fs.Uint64Var(&cfg.sampleSeed, "sample-seed", 0, "sampler seed")
	fs.IntVar(&cfg.flightKeep, "flight-keep", 0, "traversals retained by the flight recorder (0 = default)")
	fs.IntVar(&cfg.flightEvents, "flight-events", 0, "event cap of the flight recorder (0 = default)")
	fs.Var(&cfg.slo, "slo", `SLO objective, e.g. "oltp p99 < 2ms over 5m" or "error ratio < 0.1% over 30m" (repeatable)`)
	fs.DurationVar(&cfg.sloPoll, "slo-poll", serve.DefaultSLOPoll, "SLO burn-rate evaluation interval")
	fs.DurationVar(&cfg.sloCooldown, "slo-cooldown", serve.DefaultSLOCooldown, "minimum spacing between incident captures")
	fs.StringVar(&cfg.incidentDir, "incident-dir", "", "write breach incident bundles (pprof + flight dump) under this directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(cfg.graphs) == 0 {
		return nil, errors.New("at least one -graph name=spec is required")
	}
	return cfg, nil
}

// loadGraph materializes one -graph spec: "rmat:SCALE:EF[:SEED]"
// generates, ".csr" containers go through graph.Load, anything else is
// read as a whitespace edge list.
func loadGraph(spec string) (*graph.CSR, error) {
	if rest, ok := strings.CutPrefix(spec, "rmat:"); ok {
		fields := strings.Split(rest, ":")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("rmat spec %q: want rmat:SCALE:EF[:SEED]", spec)
		}
		scale, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("rmat scale %q: %w", fields[0], err)
		}
		ef, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("rmat edge factor %q: %w", fields[1], err)
		}
		p := rmat.DefaultParams(scale, ef)
		if len(fields) == 3 {
			seed, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("rmat seed %q: %w", fields[2], err)
			}
			p.Seed = seed
		}
		return rmat.Generate(p)
	}
	if strings.HasSuffix(spec, ".csr") {
		return graph.Load(spec)
	}
	g, _, err := graph.LoadEdgeList(spec)
	return g, err
}

// buildServer constructs the serve core (no graphs yet — loadGraphs
// populates it while /readyz already answers 503).
func buildServer(cfg *config, stderr *os.File) (*serve.Server, error) {
	objectives, err := serve.ParseObjectives(cfg.slo)
	if err != nil {
		return nil, err
	}
	if len(objectives) > 0 && cfg.incidentDir != "" {
		if err := os.MkdirAll(cfg.incidentDir, 0o755); err != nil {
			return nil, fmt.Errorf("incident dir: %w", err)
		}
	}
	s := serve.NewServer(serve.Config{
		MaxConcurrent:   cfg.maxConcurrent,
		QueueDepth:      cfg.queueDepth,
		DefaultDeadline: cfg.deadline,
		MaxDeadline:     cfg.maxDeadline,
		SampleK:         cfg.sampleK,
		SampleSeed:      cfg.sampleSeed,
		FlightKeep:      cfg.flightKeep,
		FlightMaxEvents: cfg.flightEvents,
		Objectives:      objectives,
		SLOPoll:         cfg.sloPoll,
		SLOCooldown:     cfg.sloCooldown,
		IncidentDir:     cfg.incidentDir,
		OnIncident: func(dir string, v obs.Verdict, err error) {
			if err != nil {
				fmt.Fprintf(stderr, "bfsd: incident capture failed (%s): %v\n", v.Objective, err)
				return
			}
			fmt.Fprintf(stderr, "bfsd: SLO breach (%s, burn %.1fx): incident bundle at %s\n",
				v.Objective, v.BurnLong, dir)
		},
	})
	return s, nil
}

// loadGraphs materializes every -graph spec into the core.
func loadGraphs(s *serve.Server, cfg *config, stderr *os.File) error {
	for _, gs := range cfg.graphs {
		start := time.Now()
		g, err := loadGraph(gs.spec)
		if err != nil {
			return fmt.Errorf("loading graph %s=%s: %w", gs.name, gs.spec, err)
		}
		if err := s.AddGraph(gs.name, gs.spec, g); err != nil {
			return fmt.Errorf("registering graph %s: %w", gs.name, err)
		}
		fmt.Fprintf(stderr, "bfsd: graph %s: %d vertices, %d edges, engine %s (%.1fs)\n",
			gs.name, g.NumVertices(), g.NumEdges(),
			s.Graphs()[len(s.Graphs())-1].Engine, time.Since(start).Seconds())
	}
	return nil
}

// run is the daemon body. Order matters for the probes: bind and serve
// first (so /healthz and a 503 /readyz answer while graphs build), then
// load graphs, then arm readiness and announce the address — the
// addrfile appears only once the daemon would pass /readyz. Shutdown
// drains in reverse: readiness drops, the listener closes, then the
// serve core waits out in-flight traversals.
func run(ctx context.Context, cfg *config, stderr *os.File) error {
	core, err := buildServer(cfg, stderr)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		core.Close()
		return fmt.Errorf("listening on %s: %w", cfg.listen, err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: core.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	if err := loadGraphs(core, cfg, stderr); err != nil {
		hs.Close()
		core.Close()
		<-errc
		return err
	}
	core.SetReady(true)
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(addr+"\n"), 0o644); err != nil {
			hs.Close()
			core.Close()
			<-errc
			return fmt.Errorf("writing addrfile: %w", err)
		}
	}
	fmt.Fprintf(stderr, "bfsd: serving %d graph(s) on http://%s\n", len(core.Graphs()), addr)

	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "bfsd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "bfsd: shutdown: %v\n", err)
		}
		core.Close()
		<-errc // Serve has returned http.ErrServerClosed
		return nil
	case err := <-errc:
		core.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

func realMain(args []string, stderr *os.File) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "bfsd: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, stderr); err != nil {
		fmt.Fprintf(stderr, "bfsd: %v\n", err)
		return 1
	}
	return 0
}

func main() { os.Exit(realMain(os.Args[1:], os.Stderr)) }
