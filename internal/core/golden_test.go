package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPricingGolden pins the priced numbers of Simulate, SimulateLazy
// and SimulateMulti as data: every plan shape over three small R-MAT
// traces and three links, per step the device, direction, kernel and
// transfer seconds, then the totals. Numbers print with %.12g, so a
// fused multiply-add (arm64) cannot flip a digit. A pricing change
// that is meant to move a number regenerates the file with
// `go test ./internal/core -run PricingGolden -update`; review the
// diff.
func TestPricingGolden(t *testing.T) {
	cpu, gpu, mic := archsim.SandyBridge(), archsim.KeplerK20x(), archsim.KnightsCorner()
	links := []struct {
		name string
		link archsim.Link
	}{
		{"pcie", archsim.PCIe()},
		{"same-device", archsim.SameDevice()},
		{"0.5GB/s", archsim.Link{BandwidthGBs: 0.5, LatencySeconds: 15e-6}},
	}
	plans := []Plan{
		FixedDirection(gpu, bfs.TopDown),
		FixedDirection(cpu, bfs.BottomUp),
		Combination(mic, 64, 64),
		PolicyPlan{PlanName: "AlphaBeta", Arch: cpu, NewPolicy: func() bfs.Policy { return bfs.NewAlphaBeta(0, 0) }},
		PolicyPlan{PlanName: "Hong", Arch: gpu, NewPolicy: func() bfs.Policy { return bfs.NewHongHybrid() }},
		TwoArchPlan{TDArch: cpu, BUArch: gpu, M: 64, N: 64},
		TwoArchPlan{TDArch: cpu, BUArch: cpu, M: 64, N: 64},
		CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64},
		// Mistuned: a late handoff that ships a large predecessor backlog.
		CrossPlan{Host: cpu, Coprocessor: gpu, M1: 2, N1: 2, M2: 64, N2: 64},
		CrossTDBU{Host: cpu, Coprocessor: mic, M1: 64, N1: 64},
	}
	var buf bytes.Buffer
	for _, g := range []struct {
		scale, ef int
		seed      uint64
	}{{9, 16, 2}, {10, 8, 7}, {12, 16, 1}} {
		tr := testTrace(t, g.scale, g.ef, g.seed)
		for _, l := range links {
			fmt.Fprintf(&buf, "# SCALE %d, edge factor %d, seed %d, link %s\n", g.scale, g.ef, g.seed, l.name)
			for _, p := range plans {
				writeTiming(&buf, "Simulate", Simulate(tr, p, l.link))
				writeTiming(&buf, "SimulateLazy", SimulateLazy(tr, p, l.link))
			}
			// Thresholds of 64 keep level 1 on the host.
			for k := 1; k <= 3; k++ {
				for _, cop := range []archsim.Arch{gpu, mic} {
					cops := make([]archsim.Arch, k)
					for i := range cops {
						cops[i] = cop
					}
					timing, err := SimulateMulti(tr, MultiCross{
						Host: cpu, Coprocessors: cops, M1: 64, N1: 64, M2: 64, N2: 64,
					}, l.link)
					if err != nil {
						t.Fatal(err)
					}
					writeTiming(&buf, "SimulateMulti", timing)
				}
			}
		}
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "pricing.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("priced numbers drifted from %s at line %d:\ngot  %s\nwant %s", golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("priced numbers drifted from %s: %d lines, want %d", golden, len(gotLines), len(wantLines))
	}
}

func writeTiming(w io.Writer, fn string, t *Timing) {
	fmt.Fprintf(w, "%s %s\n", fn, t.Plan)
	for _, st := range t.Steps {
		fmt.Fprintf(w, "  %d %s %s kernel %.12g transfer %.12g\n", st.Step, st.ArchName, st.Dir, st.Kernel, st.Transfer)
	}
	fmt.Fprintf(w, "  total %.12g transfers %.12g\n", t.Total, t.Transfers)
}
