// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, drives the program through the public
// functions of rmat, graph, bfs and serve, checks every answer, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics from a traced run) as the last line of standard output. See
// README.md for the workloads and what each metric should move.
//
//	perfbench --workload rmat-batch --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"crossbfs/internal/xmath"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json
// order; every workload reports all of them.
var endToEnd = []string{"setup_s", "peak_rss_mb", "mteps", "oltp_ms_p50", "olap_ms_p50"}

// perLayer lists the metrics of a traced run with their units. A
// layer a workload never calls reads 0 there. The latency tails lead:
// every timed phase measures them, but they follow the host's steal
// too closely to be gated, so only a traced run prints them, from its
// untraced phase.
var perLayer = [][2]string{
	{"oltp_ms_p99", "ms"}, {"olap_ms_p95", "ms"},
	{"rmat.edges_s", "s"}, {"graph.build_s", "s"},
	{"bfs.run_ms_p50", "ms"}, {"bfs.bu_ms", "ms"}, {"bfs.td_ms", "ms"}, {"bfs.run_self_ms", "ms"},
	{"bfs.level_us_p50", "us"}, {"bfs.levels", "count"}, {"bfs.bu_levels", "count"},
	{"bfs.bu_found_per_scan", "ratio"}, {"bfs.allocs_per_op", "count"}, {"bfs.serial_ms_p50", "ms"},
	{"serve.engine_ms_p50", "ms"}, {"serve.overhead_ms_p50", "ms"}, {"serve.codec_ms_p50", "ms"},
	{"serve.transport_ms_p50", "ms"}, {"serve.service_ms_p99", "ms"}, {"serve.olap_service_ms_p50", "ms"},
	{"serve.refused", "count"}, {"serve.allocs_per_query", "count"}, {"load.send_lag_ms_p99", "ms"},
	{"obs.events_per_query", "count"}, {"obs.scrape_ms_p50", "ms"}, {"obs.scrape_bytes", "bytes"},
}

// setupTimes is one set-up repetition: the whole of it, and the calls
// into rmat and graph inside it.
type setupTimes struct{ total, rmat, build time.Duration }

// session is a set-up workload, ready for timed phases.
type session interface {
	// measure runs one timed phase of at least seconds. With tr set it
	// is the traced phase and fills phase.layer; allocs asks an
	// untraced phase for the allocation counts of the per-layer set.
	measure(seconds float64, tr *tracer, allocs bool) (*phase, error)
	close()
}

// phase is what one timed phase measured.
type phase struct {
	attempted, failed int
	e2e               metrics // every end-to-end metric but setup_s and peak_rss_mb
	layer             metrics
	steal             float64 // host steal share over the timed loop
}

// workload is one input set: its set-up, repeated reps times per run
// so setup_s is a median.
type workload struct {
	reps  int
	setup func(seed uint64, tr *tracer) (session, setupTimes, error)
}

var workloads = map[string]workload{
	"rmat-batch":  {reps: 3, setup: setupBatch},
	"serve-mixed": {reps: 5, setup: setupServe},
}

// Lanes of the span file.
const (
	laneSetup = 1
	laneBatch = 2
	laneConn  = 10 // + connection index
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rmat-batch or serve-mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 40, "length of a timed phase")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced phase and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := bench(wl, *name, *seed, *seconds, *trace == 1, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// coldStart returns freed memory to the OS, so the next set-up faults
// its pages in the way a fresh bfsd or graph500 process does.
func coldStart() {
	runtime.GC()
	debug.FreeOSMemory()
}

func bench(wl workload, name string, seed uint64, seconds float64, trace bool, stdout io.Writer) error {
	var sess session
	var totals, rmatS, buildS []float64
	for i := 0; i < wl.reps; i++ {
		if sess != nil {
			sess.close()
			sess = nil
		}
		coldStart()
		s, t, err := wl.setup(seed, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		sess = s
		totals = append(totals, t.total.Seconds())
		rmatS = append(rmatS, t.rmat.Seconds())
		buildS = append(buildS, t.build.Seconds())
	}
	a, err := sess.measure(seconds, nil, trace)
	sess.close()
	if err != nil {
		return failed(stdout, a, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	e2e := a.e2e
	e2e.set("setup_s", xmath.Median(totals), "s")
	e2e.set("peak_rss_mb", rss, "MB")
	res := &result{Correct: true, Attempted: a.attempted, Metrics: e2e}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default (100)"
	}
	meta := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"gogc": gogc, "go_version": runtime.Version(),
		"steal_share": a.steal, "setup_reps": wl.reps,
	}
	if trace {
		tr := newTracer()
		coldStart()
		s, t, err := wl.setup(seed, tr)
		if err != nil {
			return fmt.Errorf("traced set-up: %w", err)
		}
		b, err := s.measure(seconds, tr, false)
		s.close()
		if err != nil {
			return failed(stdout, b, err)
		}
		traced := b.e2e
		traced.set("setup_s", t.total.Seconds(), "s")
		rssB, err := peakRSSMB()
		if err != nil {
			return err
		}
		traced.set("peak_rss_mb", rssB, "MB")
		overhead := map[string]any{}
		for _, n := range endToEnd {
			overhead[n] = map[string]float64{"untraced": e2e[n].Value, "traced": traced[n].Value,
				"share": traced[n].Value/e2e[n].Value - 1}
		}
		// The untraced phase's values win: the tails and allocation
		// counts are measured with only the Nop recorder attached.
		layer := metrics{}
		for k, v := range b.layer {
			layer[k] = v
		}
		for k, v := range a.layer {
			layer[k] = v
		}
		layer.set("rmat.edges_s", xmath.Median(rmatS), "s")
		layer.set("graph.build_s", xmath.Median(buildS), "s")
		for _, nu := range perLayer {
			if _, ok := layer[nu[0]]; !ok {
				layer.set(nu[0], 0, nu[1])
			}
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		meta["steal_share_traced"] = b.steal
		meta["trace_file"] = path
		meta["trace_spans"] = len(tr.spans)
		if err := printJSON(stdout, map[string]any{"tracing_overhead": overhead}); err != nil {
			return err
		}
		res = &result{Correct: true, Attempted: a.attempted + b.attempted, Metrics: layer}
	}
	if err := printJSON(stdout, map[string]any{"meta": meta}); err != nil {
		return err
	}
	return printJSON(stdout, res)
}

// failed ends a phase that got operations wrong: it prints a result
// line marked incorrect with the counts, then returns err.
func failed(stdout io.Writer, ph *phase, err error) error {
	if ph != nil && ph.failed > 0 {
		_ = printJSON(stdout, &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: ph.e2e}) // err is what the caller reports
	}
	return err
}

// logf reports progress on standard error, which the result line
// does not share.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
