package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestHeuristicComparison(t *testing.T) {
	rows, err := HeuristicComparison(smallCfg, [][2]int{{13, 16}, {14, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// The oracle-tuned MN rule is the best of the bunch by
		// construction (it is exhaustively tuned on this very trace).
		for name, alt := range map[string]float64{
			"MN(64,64)": r.MNFixed, "alpha/beta": r.AlphaBeta,
			"Hong": r.Hong, "pure TD": r.PureTD, "pure BU": r.PureBU,
		} {
			if alt < r.MNOracle*0.999 {
				t.Errorf("%s: %s (%g) beats the tuned oracle (%g)", r.Label, name, alt, r.MNOracle)
			}
		}
		// Every switching heuristic should beat at least one pure
		// baseline on an R-MAT graph.
		worstPure := r.PureTD
		if r.PureBU > worstPure {
			worstPure = r.PureBU
		}
		for name, h := range map[string]float64{"alpha/beta": r.AlphaBeta, "Hong": r.Hong} {
			if h > worstPure {
				t.Errorf("%s: %s (%g) loses to the worst pure baseline (%g)", r.Label, name, h, worstPure)
			}
		}
		if r.OracleGain < 1 {
			t.Errorf("%s: oracle gain %.2f < 1", r.Label, r.OracleGain)
		}
	}
}

func TestRenderHeuristics(t *testing.T) {
	rows := []HeuristicRow{{
		Label: "SCALE=13 ef=16", MNOracle: 0.001, MNFixed: 0.002,
		AlphaBeta: 0.0015, Hong: 0.0018, PureTD: 0.004, PureBU: 0.005,
		OracleGain: 1.5,
	}}
	var buf bytes.Buffer
	if err := RenderHeuristics(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alpha/beta") || !strings.Contains(buf.String(), "1.50x") {
		t.Errorf("render output missing fields:\n%s", buf.String())
	}
}
