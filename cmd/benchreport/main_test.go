package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleBenchOutput mirrors real `go test -bench -benchmem` output,
// including sub-benchmarks, custom metrics, and non-bench noise lines.
const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: crossbfs/internal/bfs
cpu: AMD EPYC 7B13
BenchmarkRunNopRecorder-8     	  215576	      5531 ns/op	       0 B/op	       0 allocs/op
BenchmarkRunLiveRecorder-8    	  180000	      6600 ns/op	     512 B/op	       3 allocs/op
BenchmarkRunManyRecorderOverhead/nop-8         	     237	   4960627 ns/op	       657.4 MTEPS	   29440 B/op	     723 allocs/op
BenchmarkRunManyRecorderOverhead/live-8        	     235	   4920000 ns/op	       663.0 MTEPS	   30208 B/op	     760 allocs/op
BenchmarkRunManyRecorderOverhead/stream-8      	     190	   6160000 ns/op	       529.2 MTEPS	   48000 B/op	     910 allocs/op
BenchmarkKernelScales/hybrid/scale14-8         	      98	  11840000 ns/op	2148.00 MB/s	   10000 B/op	      40 allocs/op
PASS
ok  	crossbfs/internal/bfs	12.345s
`

func TestParseBenchOutput(t *testing.T) {
	entries := parseBenchOutput(sampleBenchOutput)
	if len(entries) != 6 {
		t.Fatalf("parsed %d entries, want 6: %v", len(entries), entries)
	}
	nop := entries["BenchmarkRunNopRecorder"]
	if nop.NsOp != 5531 || nop.AllocsOp != 0 || nop.BOp != 0 || nop.Iters != 215576 {
		t.Errorf("nop entry = %+v", nop)
	}
	over := entries["BenchmarkRunManyRecorderOverhead/nop"]
	if over.MTEPS != 657.4 || over.AllocsOp != 723 {
		t.Errorf("overhead/nop entry = %+v", over)
	}
	// MTEPS derived from MB/s ÷ 4 when the custom metric is absent.
	kern := entries["BenchmarkKernelScales/hybrid/scale14"]
	if kern.MBs != 2148 || kern.MTEPS != 537 {
		t.Errorf("kernel entry = %+v, want MB/s 2148 MTEPS 537", kern)
	}
}

func TestOverheadDeltas(t *testing.T) {
	entries := parseBenchOutput(sampleBenchOutput)
	deltas := overheadDeltas(entries)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %v, want live and stream vs nop", deltas)
	}
	if d := deltas["live_vs_nop"]; d > 0 || d < -1.5 {
		t.Errorf("live_vs_nop = %.2f%%, want ~-0.8%%", d)
	}
	if d := deltas["stream_vs_nop"]; d < 20 || d > 30 {
		t.Errorf("stream_vs_nop = %.2f%%, want ~24%%", d)
	}
}

func snapFrom(t *testing.T, out string) *Snapshot {
	t.Helper()
	return &Snapshot{
		Schema:     schemaV1,
		Benchmarks: parseBenchOutput(out),
	}
}

func TestCompareRules(t *testing.T) {
	prev := snapFrom(t, sampleBenchOutput)
	cur := snapFrom(t, sampleBenchOutput)
	regs, missing := compare(prev, cur, 0.35)
	if len(regs) != 0 || len(missing) != 0 {
		t.Fatalf("self-compare: regs=%v missing=%v", regs, missing)
	}

	// ns/op over threshold.
	e := cur.Benchmarks["BenchmarkRunLiveRecorder"]
	e.NsOp *= 2
	cur.Benchmarks["BenchmarkRunLiveRecorder"] = e
	// allocs/op: 0 -> nonzero must regress regardless of threshold.
	e = cur.Benchmarks["BenchmarkRunNopRecorder"]
	e.AllocsOp = 1
	cur.Benchmarks["BenchmarkRunNopRecorder"] = e
	// MTEPS collapse.
	e = cur.Benchmarks["BenchmarkKernelScales/hybrid/scale14"]
	e.MTEPS /= 3
	cur.Benchmarks["BenchmarkKernelScales/hybrid/scale14"] = e

	regs, _ = compare(prev, cur, 0.35)
	found := map[string]bool{}
	for _, r := range regs {
		found[r.Bench+"|"+r.Metric] = true
	}
	for _, want := range []string{
		"BenchmarkRunLiveRecorder|ns/op",
		"BenchmarkRunNopRecorder|allocs/op",
		"BenchmarkKernelScales/hybrid/scale14|MTEPS",
	} {
		if !found[want] {
			t.Errorf("compare missed regression %s; got %v", want, regs)
		}
	}

	// Missing benchmarks warn, never fail.
	delete(cur.Benchmarks, "BenchmarkRunManyRecorderOverhead/stream")
	_, missing = compare(prev, snapFrom(t, sampleBenchOutput), 0.35)
	if len(missing) != 0 {
		t.Errorf("unexpected missing on identical sets: %v", missing)
	}
	sub := &Snapshot{Schema: schemaV1, Benchmarks: map[string]BenchEntry{}}
	regs, missing = compare(prev, sub, 0.35)
	if len(regs) != 0 {
		t.Errorf("missing benchmarks produced regressions: %v", regs)
	}
	if len(missing) != len(prev.Benchmarks) {
		t.Errorf("missing = %v, want all %d", missing, len(prev.Benchmarks))
	}
}

func TestSnapshotNumbering(t *testing.T) {
	dir := t.TempDir()
	p, err := nextSnapshotPath(dir)
	if err != nil || filepath.Base(p) != "BENCH_1.json" {
		t.Fatalf("empty dir -> %q, %v; want BENCH_1.json", p, err)
	}
	for _, name := range []string{"BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err = nextSnapshotPath(dir)
	if err != nil || filepath.Base(p) != "BENCH_4.json" {
		t.Fatalf("next after 1,3 -> %q, %v; want BENCH_4.json", p, err)
	}
	paths, err := scanSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range paths {
		names = append(names, filepath.Base(p))
	}
	if strings.Join(names, ",") != "BENCH_1.json,BENCH_3.json" {
		t.Errorf("scanSnapshots = %v", names)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := snapFrom(t, sampleBenchOutput)
	s.Go = "go1.22.0"
	s.Benchtime = "1x"
	s.OverheadPct = overheadDeltas(s.Benchmarks)
	path := filepath.Join(dir, "BENCH_1.json")
	if err := writeSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Go != s.Go || len(got.Benchmarks) != len(s.Benchmarks) {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	if got.Benchmarks["BenchmarkKernelScales/hybrid/scale14"].MTEPS != 537 {
		t.Errorf("MTEPS lost in round trip: %+v", got.Benchmarks)
	}

	// Schema guard: wrong schema string must be rejected.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9","benchmarks":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(bad); err == nil {
		t.Error("readSnapshot accepted wrong schema")
	}
}

// stubBenches redirects the go test invocation to canned output for the
// duration of one test.
func stubBenches(t *testing.T, out string, err error) {
	t.Helper()
	orig := runBenches
	runBenches = func(_ []string, _, _ string, _ io.Writer) (string, error) {
		return out, err
	}
	t.Cleanup(func() { runBenches = orig })
}

// TestDoctoredRegressionExitsNonzero is the ISSUE acceptance criterion:
// benchreport fed a doctored prior snapshot claiming far better numbers
// than the "current" run must exit nonzero.
func TestDoctoredRegressionExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	stubBenches(t, sampleBenchOutput, nil)

	// Baseline run: no previous snapshot, exit 0, BENCH_1.json written.
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline run exit %d, stderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_1.json")); err != nil {
		t.Fatalf("baseline snapshot missing: %v", err)
	}
	if !strings.Contains(stdout.String(), "baseline established") {
		t.Errorf("baseline stdout: %q", stdout.String())
	}

	// Doctor the baseline: claim the nop bench used to be 3x faster, so
	// the unchanged "current" numbers read as a >35% ns/op regression.
	prev, err := readSnapshot(filepath.Join(dir, "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	e := prev.Benchmarks["BenchmarkRunNopRecorder"]
	e.NsOp /= 3
	prev.Benchmarks["BenchmarkRunNopRecorder"] = e
	if err := writeSnapshot(filepath.Join(dir, "BENCH_1.json"), prev); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	stderr.Reset()
	code := realMain([]string{"-dir", dir}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("doctored compare exit %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "REGRESSION BenchmarkRunNopRecorder: ns/op") {
		t.Errorf("stderr missing the regression line:\n%s", stderr.String())
	}
	// The fresh run is still snapshotted (BENCH_2.json) so the next run
	// compares against reality, not the doctored file.
	if _, err := os.Stat(filepath.Join(dir, "BENCH_2.json")); err != nil {
		t.Errorf("regressing run did not write BENCH_2.json: %v", err)
	}

	// A wide threshold lets the same pair pass.
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"-dir", dir, "-prev", filepath.Join(dir, "BENCH_1.json"),
		"-cur", filepath.Join(dir, "BENCH_2.json"), "-threshold", "9"}, &stdout, &stderr); code != 0 {
		t.Errorf("threshold 900%% compare exit %d, stderr:\n%s", code, stderr.String())
	}
}

func TestCompareOnlyMode(t *testing.T) {
	dir := t.TempDir()
	prev := snapFrom(t, sampleBenchOutput)
	cur := snapFrom(t, sampleBenchOutput)
	e := cur.Benchmarks["BenchmarkRunLiveRecorder"]
	e.NsOp *= 3
	cur.Benchmarks["BenchmarkRunLiveRecorder"] = e
	prevPath := filepath.Join(dir, "prev.json")
	curPath := filepath.Join(dir, "cur.json")
	if err := writeSnapshot(prevPath, prev); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(curPath, cur); err != nil {
		t.Fatal(err)
	}
	// No bench run happens: stub would fail loudly if invoked.
	stubBenches(t, "", os.ErrInvalid)

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-prev", prevPath, "-cur", curPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("compare-only regression exit %d, want 1\n%s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"-prev", prevPath, "-cur", prevPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("compare-only identical exit %d, want 0\n%s", code, stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag exit %d, want 2", code)
	}
	if code := realMain([]string{"stray"}, &stdout, &stderr); code != 2 {
		t.Errorf("stray arg exit %d, want 2", code)
	}
	if code := realMain([]string{"-threshold", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("zero threshold exit %d, want 2", code)
	}
	if code := realMain([]string{"-cur", "/nonexistent.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("unreadable -cur exit %d, want 2", code)
	}
	// A failing bench run is operational (2), not a regression (1).
	stubBenches(t, "", os.ErrDeadlineExceeded)
	if code := realMain([]string{"-dir", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Errorf("failed bench run exit %d, want 2", code)
	}
}

// TestSettingsMismatchExits2 compares only like with like: a previous
// snapshot taken at another -benchtime or GOMAXPROCS makes benchreport
// print both settings and exit 2, with no regression list, in
// compare-only mode and before a bench run, which then writes nothing.
func TestSettingsMismatchExits2(t *testing.T) {
	dir := t.TempDir()
	prev := snapFrom(t, sampleBenchOutput)
	prev.Benchtime, prev.GOMAXPROCS = "300x", 1
	cur := snapFrom(t, sampleBenchOutput)
	cur.Benchtime, cur.GOMAXPROCS = "1x", 2
	e := cur.Benchmarks["BenchmarkRunLiveRecorder"]
	e.NsOp *= 3
	cur.Benchmarks["BenchmarkRunLiveRecorder"] = e
	prevPath := filepath.Join(dir, "BENCH_1.json")
	curPath := filepath.Join(t.TempDir(), "cur.json")
	if err := writeSnapshot(prevPath, prev); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(curPath, cur); err != nil {
		t.Fatal(err)
	}
	stubBenches(t, sampleBenchOutput, nil)

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-prev", prevPath, "-cur", curPath}, &stdout, &stderr); code != 2 {
		t.Fatalf("compare-only across settings exit %d, want 2\n%s", code, stderr.String())
	}
	msg := stderr.String()
	for _, want := range []string{"-benchtime 300x with GOMAXPROCS 1", "-benchtime 1x with GOMAXPROCS 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr does not name %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg+stdout.String(), "REGRESSION") {
		t.Errorf("a mismatch printed a regression list:\n%s", msg)
	}

	// A bench run at 1x against the 300x snapshot stops before running.
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"-dir", dir, "-benchtime", "1x"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bench run across settings exit %d, want 2\n%s", code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_2.json")); err == nil {
		t.Error("a run across settings wrote BENCH_2.json")
	}
}
