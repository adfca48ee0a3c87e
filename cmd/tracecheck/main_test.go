package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossbfs/internal/bfs"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
)

func writeTrace(t *testing.T) string {
	t.Helper()
	p := rmat.DefaultParams(10, 8)
	p.Seed = 3
	g, err := rmat.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := obs.NewTraceWriter(f)
	err = bfs.RunMany(context.Background(), g, []int32{0, 1, 2}, bfs.ManyOptions{Recorder: tw},
		func(int, int32, *bfs.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunValidTrace(t *testing.T) {
	path := writeTrace(t)
	var out bytes.Buffer
	if err := run(path, false, false, &out); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if !strings.Contains(out.String(), "traversal ") {
		t.Errorf("summary missing traversal timelines:\n%s", out.String())
	}
	out.Reset()
	if err := run(path, true, false, &out); err != nil {
		t.Fatalf("quiet mode failed: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("quiet mode printed output: %q", out.String())
	}
}

func TestRunSummaryJSON(t *testing.T) {
	path := writeTrace(t)
	var out bytes.Buffer
	if err := run(path, false, true, &out); err != nil {
		t.Fatalf("summary-json failed: %v", err)
	}
	var s obs.TraceSummary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("-summary-json is not a TraceSummary: %v\n%s", err, out.String())
	}
	if s.Levels == 0 || len(s.LevelDirs) != 3 {
		t.Errorf("JSON summary doesn't reflect the trace: %+v", s)
	}
}

func TestRunRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"traceEvents":[{"ph":"Z"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, true, false, os.Stdout); err == nil {
		t.Error("malformed trace accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.json"), true, false, os.Stdout); err == nil {
		t.Error("missing file accepted")
	}
}

// TestExitCodes pins the documented contract: 0 valid, 1 invalid, 2
// usage — what `make trace-smoke` and CI scripts branch on.
func TestExitCodes(t *testing.T) {
	valid := writeTrace(t)
	invalid := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(invalid, []byte(`{"traceEvents":[{"ph":"Z"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"valid", []string{valid}, 0},
		{"valid quiet", []string{"-q", valid}, 0},
		{"valid json", []string{"-summary-json", valid}, 0},
		{"invalid", []string{invalid}, 1},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.json")}, 1},
		{"no args", nil, 2},
		{"two args", []string{valid, valid}, 2},
		{"bad flag", []string{"-wat", valid}, 2},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if got := realMain(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, got, tc.want, stderr.String())
		}
	}
}
