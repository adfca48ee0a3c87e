// Command benchreport is the continuous perf-regression harness: it
// runs the repo's benchmarks, writes a machine-readable snapshot
// (BENCH_<n>.json at the repo root), and compares the fresh numbers
// against the previous snapshot. A regression beyond the threshold
// exits nonzero, which is what lets `make bench-report` and the CI
// bench-report job gate the perf trajectory the same way `make verify`
// gates correctness.
//
// Usage:
//
//	benchreport [flags]
//
//	-dir string        directory holding BENCH_<n>.json snapshots (default ".")
//	-pkgs string       comma-separated packages to benchmark (default
//	                   "./internal/bfs,./internal/rmat,./internal/graph,./internal/tuner")
//	-bench string      benchmark regex handed to go test (default covers the
//	                   kernel, RunMany, point-query and recorder-overhead
//	                   benches, Graph 500 kernel 1: Edges, Generate and
//	                   Build, and the plan pricer through the tuner's
//	                   Evaluate1000 and LabelBest)
//	-benchtime string  go test -benchtime value (default "1x"); go test
//	                   runs each benchmark once (-count 1)
//	-threshold float   relative regression tolerance (default 0.35 = 35%)
//	-out string        snapshot path to write (default: next BENCH_<n>.json in -dir)
//	-prev string       snapshot to compare against (default: highest BENCH_<n>.json in -dir)
//	-cur string        compare-only mode: skip the bench run and compare -cur against -prev
//	-serving string    bfsload report (crossbfs-load/v1) to fold into the
//	                   snapshot's "serving" section
//	-v                 log the raw go test output
//
// Snapshot schema (BENCH_<n>.json, "crossbfs-bench/v1"):
//
//	{
//	  "schema": "crossbfs-bench/v1",
//	  "go": "go1.22.x", "goos": "linux", "goarch": "amd64", "gomaxprocs": 8,
//	  "benchtime": "1x",
//	  "benchmarks": {
//	    "BenchmarkHybrid": {
//	      "iters":     <int>,    // benchmark iterations run
//	      "ns_op":     <float>,  // nanoseconds per op
//	      "b_op":      <int>,    // bytes allocated per op (-1 when unreported)
//	      "allocs_op": <int>,    // allocations per op (-1 when unreported)
//	      "mb_s":      <float>,  // throughput (0 when unreported)
//	      "mteps":     <float>   // millions of traversed edges/s (0 when unreported);
//	                             // from the MTEPS metric, else MB/s ÷ 4
//	                             // (benches SetBytes 4 bytes per edge)
//	    }, ...
//	  },
//	  "overhead_pct": {          // recorder-overhead deltas, from the
//	    "live_vs_nop": <float>,  // BenchmarkRunManyRecorderOverhead/<mode>
//	    ...                      // ns/op relative to the nop mode, percent
//	  }
//	}
//
// Comparison rules, applied per benchmark present in both snapshots:
//
//   - ns/op:  regression when cur > prev × (1 + threshold)
//   - MTEPS:  regression when cur < prev ÷ (1 + threshold)
//   - allocs/op: 0 → nonzero is ALWAYS a regression (machine-independent
//     gate — BenchmarkRunNopRecorder's 0 allocs/op contract); otherwise
//     the threshold ratio applies
//   - benchmarks missing from either side are warnings, never failures
//   - serving (when both snapshots carry the section, same mix):
//     p50/p99/p999 regress when cur > prev × (1 + threshold), sustained
//     QPS when cur < prev ÷ (1 + threshold); a section on only one side
//     (or a mix change) is a warning
//
// Runs are compared only like with like: when the previous snapshot's
// benchtime or GOMAXPROCS differs from this run's, benchreport prints
// both settings and exits 2 before running anything.
//
// Exit codes: 0 no regression, 1 regression detected, 2 usage or
// operational error (bench run failed, unreadable snapshot, settings
// that differ from the previous snapshot's).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the serialized form of one benchmark run.
type Snapshot struct {
	Schema     string                `json:"schema"`
	Go         string                `json:"go"`
	GOOS       string                `json:"goos"`
	GOARCH     string                `json:"goarch"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Benchtime  string                `json:"benchtime"`
	Benchmarks map[string]BenchEntry `json:"benchmarks"`
	// OverheadPct reports each RunManyRecorderOverhead mode's ns/op
	// delta vs the nop mode, in percent (live 5.0 = live is 5% slower).
	OverheadPct map[string]float64 `json:"overhead_pct,omitempty"`
	// Serving holds the bfsd/bfsload serving numbers folded in via
	// -serving; nil when the snapshot carries none.
	Serving *ServingEntry `json:"serving,omitempty"`
}

// ServingEntry is the serving-latency section of a snapshot: the
// totals of one bfsload run (-serving report.json). Latencies regress
// like ns/op, sustained QPS regresses like MTEPS.
type ServingEntry struct {
	Mix          string  `json:"mix"`
	TargetQPS    float64 `json:"target_qps"`
	SustainedQPS float64 `json:"sustained_qps"`
	P50US        int64   `json:"p50_us"`
	P99US        int64   `json:"p99_us"`
	P999US       int64   `json:"p999_us"`
	Rejected     int64   `json:"rejected"`
	Deadline     int64   `json:"deadline"`
}

// BenchEntry is one benchmark's measured values.
type BenchEntry struct {
	Iters    int     `json:"iters"`
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
	MBs      float64 `json:"mb_s"`
	MTEPS    float64 `json:"mteps"`
}

const schemaV1 = "crossbfs-bench/v1"

// loadSchemaV1 is the bfsload report schema -serving accepts.
const loadSchemaV1 = "crossbfs-load/v1"

// readServingReport folds a bfsload JSON report's totals into a
// ServingEntry.
func readServingReport(path string) (*ServingEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Schema    string  `json:"schema"`
		Mix       string  `json:"mix"`
		TargetQPS float64 `json:"target_qps"`
		Total     struct {
			OK           int64   `json:"ok"`
			Rejected     int64   `json:"rejected"`
			Deadline     int64   `json:"deadline"`
			P50US        int64   `json:"p50_us"`
			P99US        int64   `json:"p99_us"`
			P999US       int64   `json:"p999_us"`
			SustainedQPS float64 `json:"sustained_qps"`
		} `json:"total"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != loadSchemaV1 {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, loadSchemaV1)
	}
	if rep.Total.OK == 0 {
		return nil, fmt.Errorf("%s: load run has no successful queries", path)
	}
	return &ServingEntry{
		Mix:          rep.Mix,
		TargetQPS:    rep.TargetQPS,
		SustainedQPS: rep.Total.SustainedQPS,
		P50US:        rep.Total.P50US,
		P99US:        rep.Total.P99US,
		P999US:       rep.Total.P999US,
		Rejected:     rep.Total.Rejected,
		Deadline:     rep.Total.Deadline,
	}, nil
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkName[-P]  <iters>  <ns> ns/op  [<value> <unit>]...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op((?:\s+[\d.]+ [^\s]+)*)\s*$`)

// metricPair picks the trailing value/unit pairs off a bench line.
var metricPair = regexp.MustCompile(`([\d.]+) ([^\s]+)`)

// parseBenchOutput extracts benchmark entries from go test output.
// Sub-benchmark names keep their slashes; the -P GOMAXPROCS suffix is
// stripped so snapshots from differently-sized machines align.
func parseBenchOutput(out string) map[string]BenchEntry {
	entries := make(map[string]BenchEntry)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.Atoi(m[2])
		ns, _ := strconv.ParseFloat(m[3], 64)
		e := BenchEntry{Iters: iters, NsOp: ns, BOp: -1, AllocsOp: -1}
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, _ := strconv.ParseFloat(pair[1], 64)
			switch pair[2] {
			case "B/op":
				e.BOp = int64(v)
			case "allocs/op":
				e.AllocsOp = int64(v)
			case "MB/s":
				e.MBs = v
			case "MTEPS":
				e.MTEPS = v
			}
		}
		if e.MTEPS == 0 && e.MBs > 0 {
			// The TEPS benches SetBytes(edges*4): MB/s ÷ 4 = M edges/s.
			e.MTEPS = e.MBs / 4
		}
		entries[m[1]] = e
	}
	return entries
}

// overheadDeltas derives the recorder-overhead percentages from the
// RunManyRecorderOverhead sub-benchmarks, relative to the nop mode.
func overheadDeltas(entries map[string]BenchEntry) map[string]float64 {
	const prefix = "BenchmarkRunManyRecorderOverhead/"
	nop, ok := entries[prefix+"nop"]
	if !ok || nop.NsOp == 0 {
		return nil
	}
	deltas := make(map[string]float64)
	for name, e := range entries {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		mode := strings.TrimPrefix(name, prefix)
		if mode == "nop" {
			continue
		}
		deltas[mode+"_vs_nop"] = (e.NsOp - nop.NsOp) / nop.NsOp * 100
	}
	if len(deltas) == 0 {
		return nil
	}
	return deltas
}

// Regression describes one above-threshold change.
type Regression struct {
	Bench  string
	Metric string
	Prev   float64
	Cur    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.6g -> %.6g", r.Bench, r.Metric, r.Prev, r.Cur)
}

// compare applies the regression rules; it returns the regressions and
// the names missing from either side (warnings).
func compare(prev, cur *Snapshot, threshold float64) (regs []Regression, missing []string) {
	names := make([]string, 0, len(prev.Benchmarks))
	for name := range prev.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := prev.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			missing = append(missing, name+" (gone)")
			continue
		}
		if p.NsOp > 0 && c.NsOp > p.NsOp*(1+threshold) {
			regs = append(regs, Regression{name, "ns/op", p.NsOp, c.NsOp})
		}
		if p.AllocsOp == 0 && c.AllocsOp > 0 {
			// The machine-independent gate: a 0 allocs/op benchmark that
			// starts allocating regressed no matter the threshold.
			regs = append(regs, Regression{name, "allocs/op", 0, float64(c.AllocsOp)})
		} else if p.AllocsOp > 0 && c.AllocsOp >= 0 &&
			float64(c.AllocsOp) > float64(p.AllocsOp)*(1+threshold) {
			regs = append(regs, Regression{name, "allocs/op", float64(p.AllocsOp), float64(c.AllocsOp)})
		}
		if p.MTEPS > 0 && c.MTEPS > 0 && c.MTEPS < p.MTEPS/(1+threshold) {
			regs = append(regs, Regression{name, "MTEPS", p.MTEPS, c.MTEPS})
		}
	}
	for name := range cur.Benchmarks {
		if _, ok := prev.Benchmarks[name]; !ok {
			missing = append(missing, name+" (new)")
		}
	}
	regs, missing = compareServing(prev.Serving, cur.Serving, threshold, regs, missing)
	sort.Strings(missing)
	return regs, missing
}

// compareServing applies the serving-section rules: latency quantiles
// regress upward like ns/op, sustained QPS regresses downward like
// MTEPS, and a section present on only one side is a warning (matching
// the missing-benchmark rule). Mismatched mixes aren't comparable and
// also warn.
func compareServing(p, c *ServingEntry, threshold float64, regs []Regression, missing []string) ([]Regression, []string) {
	switch {
	case p == nil && c == nil:
		return regs, missing
	case c == nil:
		return regs, append(missing, "serving section (gone)")
	case p == nil:
		return regs, append(missing, "serving section (new)")
	case p.Mix != c.Mix:
		return regs, append(missing, fmt.Sprintf("serving section (mix %s -> %s, not comparable)", p.Mix, c.Mix))
	}
	lat := []struct {
		metric    string
		prev, cur int64
	}{
		{"serving p50 µs", p.P50US, c.P50US},
		{"serving p99 µs", p.P99US, c.P99US},
		{"serving p999 µs", p.P999US, c.P999US},
	}
	for _, l := range lat {
		if l.prev > 0 && float64(l.cur) > float64(l.prev)*(1+threshold) {
			regs = append(regs, Regression{"serving", l.metric, float64(l.prev), float64(l.cur)})
		}
	}
	if p.SustainedQPS > 0 && c.SustainedQPS > 0 && c.SustainedQPS < p.SustainedQPS/(1+threshold) {
		regs = append(regs, Regression{"serving", "sustained QPS", p.SustainedQPS, c.SustainedQPS})
	}
	return regs, missing
}

var snapName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// scanSnapshots returns the numbered snapshot files in dir, sorted by
// number ascending.
func scanSnapshots(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type numbered struct {
		n    int
		path string
	}
	var found []numbered
	for _, ent := range ents {
		if m := snapName.FindStringSubmatch(ent.Name()); m != nil {
			n, _ := strconv.Atoi(m[1])
			found = append(found, numbered{n, filepath.Join(dir, ent.Name())})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	paths := make([]string, len(found))
	for i, f := range found {
		paths[i] = f.path
	}
	return paths, nil
}

// nextSnapshotPath picks the lowest unused BENCH_<n>.json in dir.
func nextSnapshotPath(dir string) (string, error) {
	paths, err := scanSnapshots(dir)
	if err != nil {
		return "", err
	}
	max := 0
	for _, p := range paths {
		m := snapName.FindStringSubmatch(filepath.Base(p))
		n, _ := strconv.Atoi(m[1])
		if n > max {
			max = n
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", max+1)), nil
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != schemaV1 {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, schemaV1)
	}
	if s.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &s, nil
}

func writeSnapshot(path string, s *Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runBenches shells out to go test and returns its combined output.
// Kept as a variable so tests can stub the bench run.
var runBenches = func(pkgs []string, benchRe, benchtime string, verbose io.Writer) (string, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-benchtime", benchtime, "-count", "1"}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if verbose != nil {
		verbose.Write(out)
	}
	if err != nil {
		return "", fmt.Errorf("go test -bench: %w\n%s", err, out)
	}
	return string(out), nil
}

const defaultBench = "RunManyRecorderOverhead|KernelScales|ShardedScales|RunNopRecorder|RunLiveRecorder|RunReuseWorkspace|RunMany64Roots|PointQuery|Hybrid$|TopDownParallel|BottomUp$|Serial$|Edges$|Generate$|Build$|Evaluate1000|LabelBest"

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir       = fs.String("dir", ".", "directory holding BENCH_<n>.json snapshots")
		pkgs      = fs.String("pkgs", "./internal/bfs,./internal/rmat,./internal/graph,./internal/tuner", "comma-separated packages to benchmark")
		benchRe   = fs.String("bench", defaultBench, "benchmark regex for go test -bench")
		benchtime = fs.String("benchtime", "1x", "go test -benchtime value")
		threshold = fs.Float64("threshold", 0.35, "relative regression tolerance")
		outPath   = fs.String("out", "", "snapshot path to write (default: next BENCH_<n>.json in -dir)")
		prevPath  = fs.String("prev", "", "snapshot to compare against (default: highest BENCH_<n>.json in -dir)")
		curPath   = fs.String("cur", "", "compare-only: compare this snapshot against -prev, skip the bench run")
		servingIn = fs.String("serving", "", "bfsload report (crossbfs-load/v1) to fold into the snapshot's serving section")
		verbose   = fs.Bool("v", false, "log the raw go test output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchreport: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintln(stderr, "benchreport: -threshold must be positive")
		return 2
	}

	// Resolve the previous snapshot BEFORE writing the new one, so the
	// fresh file never compares against itself.
	if *prevPath == "" {
		paths, err := scanSnapshots(*dir)
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: scanning %s: %v\n", *dir, err)
			return 2
		}
		if len(paths) > 0 {
			*prevPath = paths[len(paths)-1]
		}
	}

	var prev *Snapshot
	if *prevPath != "" {
		s, err := readSnapshot(*prevPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: %v\n", err)
			return 2
		}
		prev = s
	}

	cur := &Snapshot{
		Schema:     schemaV1,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  *benchtime,
	}
	if *curPath != "" {
		s, err := readSnapshot(*curPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: %v\n", err)
			return 2
		}
		cur = s
	}
	// Runs under other settings are not comparable: a 1x run counts
	// warm-up allocations, and a second P changes every parallel row.
	// This is checked before the bench run, so no snapshot is written.
	if prev != nil && (prev.Benchtime != cur.Benchtime || prev.GOMAXPROCS != cur.GOMAXPROCS) {
		fmt.Fprintf(stderr, "benchreport: %s ran at -benchtime %s with GOMAXPROCS %d, this run at -benchtime %s with GOMAXPROCS %d; not comparable (make bench-report runs at the snapshots' settings)\n",
			*prevPath, prev.Benchtime, prev.GOMAXPROCS, cur.Benchtime, cur.GOMAXPROCS)
		return 2
	}
	if *curPath == "" {
		var vw io.Writer
		if *verbose {
			vw = stderr
		}
		out, err := runBenches(strings.Split(*pkgs, ","), *benchRe, *benchtime, vw)
		if err != nil {
			fmt.Fprintf(stderr, "benchreport: %v\n", err)
			return 2
		}
		cur.Benchmarks = parseBenchOutput(out)
		if len(cur.Benchmarks) == 0 {
			fmt.Fprintf(stderr, "benchreport: no benchmark results matched %q\n", *benchRe)
			return 2
		}
		cur.OverheadPct = overheadDeltas(cur.Benchmarks)
		if *servingIn != "" {
			entry, err := readServingReport(*servingIn)
			if err != nil {
				fmt.Fprintf(stderr, "benchreport: %v\n", err)
				return 2
			}
			cur.Serving = entry
		}
		if *outPath == "" {
			p, err := nextSnapshotPath(*dir)
			if err != nil {
				fmt.Fprintf(stderr, "benchreport: %v\n", err)
				return 2
			}
			*outPath = p
		}
		if err := writeSnapshot(*outPath, cur); err != nil {
			fmt.Fprintf(stderr, "benchreport: writing snapshot: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", *outPath, len(cur.Benchmarks))
	}

	if prev == nil {
		fmt.Fprintln(stdout, "no previous snapshot; baseline established, nothing to compare")
		return 0
	}
	regs, missing := compare(prev, cur, *threshold)
	for _, w := range missing {
		fmt.Fprintf(stdout, "warning: benchmark %s\n", w)
	}
	if len(regs) > 0 {
		fmt.Fprintf(stderr, "benchreport: %d regression(s) vs %s at threshold %.0f%%:\n",
			len(regs), *prevPath, *threshold*100)
		for _, r := range regs {
			fmt.Fprintf(stderr, "  REGRESSION %s\n", r)
		}
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d benchmarks within %.0f%% of %s\n",
		len(cur.Benchmarks), *threshold*100, *prevPath)
	return 0
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}
