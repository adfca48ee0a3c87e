package bfs

import (
	"context"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// runnerEngine adapts the policy runner to the Engine interface for
// the engine tables, building a fresh policy per traversal so the
// stateful heuristics (Beamer's alpha/beta phases, Hong's one-way
// switch) run beside the engines without leaking state between roots.
type runnerEngine struct {
	name      string
	newPolicy func() Policy
	workers   int
	check     bool // Options.CheckInvariants
}

func (e runnerEngine) Name() string { return e.name }

func (e runnerEngine) Run(g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunObserved(context.Background(), g, source, ws, nil)
}

func (e runnerEngine) RunObserved(ctx context.Context, g *graph.CSR, source int32, ws *Workspace, rec obs.Recorder) (*Result, error) {
	opts := Options{
		Policy: e.newPolicy(), Workers: e.workers, CheckInvariants: e.check,
		Recorder: rec, Label: e.name,
	}
	return Run(ctx, g, source, opts, ws)
}

// beamerEngine runs Beamer et al.'s alpha/beta heuristic at the
// published constants.
func beamerEngine(workers int) Engine {
	return runnerEngine{name: "beamer", newPolicy: func() Policy { return NewAlphaBeta(0, 0) }, workers: workers}
}

// hongEngine runs Hong et al.'s one-way switching heuristic.
func hongEngine(workers int) Engine {
	return runnerEngine{name: "hong", newPolicy: func() Policy { return NewHongHybrid() }, workers: workers}
}

// TestEnginesAgreeWithSerial checks every Engine implementation, with
// both a fresh and a reused workspace, against the serial reference:
// same level map, same reachable set, Graph 500-valid parent tree.
func TestEnginesAgreeWithSerial(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"path": pathGraph(t, 17),
		"star": starGraph(t, 33),
		"rmat": testRMAT(t, 10, 8, 1),
	}
	engines := []Engine{
		SerialEngine(),
		TopDownEngine(0),
		BottomUpEngine(0),
		HybridEngine(64, 64, 0),
		beamerEngine(0),
		hongEngine(0),
		DefaultEngine(),
		runnerEngine{name: "hybrid(32,32)+invariants", newPolicy: func() Policy { return MN{M: 32, N: 32} }, check: true},
	}
	for gname, g := range graphs {
		src := firstUsable(t, g)
		want, err := SerialEngine().Run(g, src, nil)
		if err != nil {
			t.Fatalf("%s: serial reference: %v", gname, err)
		}
		for _, e := range engines {
			name := gname + "/" + e.Name()
			ws := NewWorkspace(g.NumVertices())
			for _, mode := range []struct {
				tag string
				ws  *Workspace
			}{{"fresh", nil}, {"reused-1", ws}, {"reused-2", ws}} {
				got, err := e.Run(g, src, mode.ws)
				if err != nil {
					t.Fatalf("%s (%s): %v", name, mode.tag, err)
				}
				sameTraversal(t, name+" ("+mode.tag+")", want, got)
				if err := Validate(g, got); err != nil {
					t.Fatalf("%s (%s): validate: %v", name, mode.tag, err)
				}
			}
		}
	}
}

// TestEngineResultAliasesWorkspace pins the ownership contract: the
// Result returned from a workspace run is backed by the workspace, so
// the next traversal overwrites it — and Clone detaches it.
func TestEngineResultAliasesWorkspace(t *testing.T) {
	g := pathGraph(t, 12)
	e := SerialEngine()
	ws := NewWorkspace(g.NumVertices())

	first, err := e.Run(g, 0, ws)
	if err != nil {
		t.Fatal(err)
	}
	clone := first.Clone()
	if _, err := e.Run(g, 11, ws); err != nil {
		t.Fatal(err)
	}
	if first.Source != 11 {
		t.Errorf("aliased result kept Source = %d; expected the second run (source 11) to overwrite it", first.Source)
	}
	if clone.Source != 0 || clone.Level[11] != 11 {
		t.Errorf("clone mutated by workspace reuse: source %d, Level[11] = %d", clone.Source, clone.Level[11])
	}
}

func TestEngineNames(t *testing.T) {
	cases := []struct {
		e    Engine
		want string
	}{
		{SerialEngine(), "serial"},
		{TopDownEngine(0), "topdown"},
		{BottomUpEngine(0), "bottomup"},
		{HybridEngine(64, 64, 0), "hybrid(64,64)"},
		{HybridEngine(10, 20, 0), "hybrid(10,20)"},
		{DefaultEngine(), "hybrid(64,64)"},
	}
	for _, c := range cases {
		if got := c.e.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestEngineRejectsBadSource(t *testing.T) {
	g := pathGraph(t, 4)
	for _, e := range []Engine{SerialEngine(), DefaultEngine()} {
		if _, err := e.Run(g, 99, nil); err == nil {
			t.Errorf("%s: out-of-range source accepted", e.Name())
		}
	}
}
