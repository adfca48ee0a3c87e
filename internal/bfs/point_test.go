package bfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/xrand"
)

// checkPointQuery runs PointQuery from source to target with and
// without a path and checks it against the serial reference: the
// distance equals Level[target], and the path has the right ends,
// distance+1 vertices, an edge for every hop, and vertex i at serial
// level i.
func checkPointQuery(t testing.TB, name string, g *graph.CSR, ref *Result, source, target int32, ws *Workspace) {
	t.Helper()
	want := ref.Level[target]
	dist, path, err := PointQuery(context.Background(), g, source, target, ws, nil, []int32{})
	if err != nil {
		t.Fatalf("%s: PointQuery(%d,%d): %v", name, source, target, err)
	}
	if dist != want {
		t.Fatalf("%s: PointQuery(%d,%d) = %d, serial level %d", name, source, target, dist, want)
	}
	if bare, _, err := PointQuery(context.Background(), g, source, target, ws, nil, nil); err != nil || bare != dist {
		t.Fatalf("%s: PointQuery(%d,%d) without a path = %d, %v; with one %d", name, source, target, bare, err, dist)
	}
	if want == NotVisited {
		if len(path) != 0 {
			t.Fatalf("%s: unreachable %d->%d returned path %v", name, source, target, path)
		}
		return
	}
	if len(path) != int(want)+1 || path[0] != source || path[len(path)-1] != target {
		t.Fatalf("%s: path %d->%d = %v, want %d vertices from %d to %d", name, source, target, path, want+1, source, target)
	}
	for i, v := range path {
		if ref.Level[v] != int32(i) {
			t.Fatalf("%s: path %d->%d vertex %d is %d at serial level %d", name, source, target, i, v, ref.Level[v])
		}
		if i > 0 && !g.HasEdge(path[i-1], v) {
			t.Fatalf("%s: path %d->%d hop %d: no edge %d-%d", name, source, target, i, path[i-1], v)
		}
	}
}

// serialFrom is the serial reference traversal from source.
func serialFrom(t testing.TB, g *graph.CSR, source int32) *Result {
	t.Helper()
	r, err := SerialEngine().Run(g, source, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPointQueryShapes checks the point kernel against the serial
// reference on shapes R-MAT never makes.
func TestPointQueryShapes(t *testing.T) {
	edges := func(pairs ...[2]int32) []graph.Edge {
		es := make([]graph.Edge, len(pairs))
		for i, p := range pairs {
			es[i] = graph.Edge{From: p[0], To: p[1]}
		}
		return es
	}
	twoParts := mustBuild(t, 8, edges([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}, [2]int32{4, 5}, [2]int32{5, 6}, [2]int32{6, 7}))
	isolated := mustBuild(t, 5, edges([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}))
	lattice := latticeGraph(t, 16)
	cases := []struct {
		name           string
		g              *graph.CSR
		source, target int32
	}{
		{"path/ends", pathGraph(t, 200), 0, 199},
		{"path/reversed", pathGraph(t, 200), 199, 0},
		{"path/inner", pathGraph(t, 200), 37, 150},
		{"star/hub-leaf", starGraph(t, 50), 0, 49},
		{"star/leaf-hub", starGraph(t, 50), 17, 0},
		{"star/leaf-leaf", starGraph(t, 50), 3, 41},
		{"lattice/corners", lattice, 0, 255},
		{"lattice/anti-corners", lattice, 15, 240},
		{"lattice/inner", lattice, 17, 200},
		{"components/forward", twoParts, 0, 7},
		{"components/backward", twoParts, 6, 1},
		{"components/same", twoParts, 4, 7},
		{"isolated/source", isolated, 4, 2},
		{"isolated/target", isolated, 0, 4},
		{"same vertex", lattice, 42, 42},
		{"same isolated vertex", isolated, 4, 4},
		{"adjacent", lattice, 42, 43},
	}
	ws := NewWorkspace(0)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := serialFrom(t, c.g, c.source)
			checkPointQuery(t, c.name+"/fresh", c.g, ref, c.source, c.target, nil)
			checkPointQuery(t, c.name+"/reused", c.g, ref, c.source, c.target, ws)
		})
	}
}

// TestPointQueryRMAT checks random pairs on an R-MAT graph through one
// reused workspace, including targets without an edge.
func TestPointQueryRMAT(t *testing.T) {
	g := testRMAT(t, 12, 8, 11)
	rng := xrand.New(5)
	ws := NewWorkspace(g.NumVertices())
	for i := 0; i < 16; i++ {
		source := int32(rng.Intn(g.NumVertices()))
		ref := serialFrom(t, g, source)
		for j := 0; j < 16; j++ {
			checkPointQuery(t, "rmat12", g, ref, source, int32(rng.Intn(g.NumVertices())), ws)
		}
	}
}

// FuzzPointQuery decodes the input into a symmetrized graph of up to
// 64 vertices, a source and a target, and checks the point kernel
// against the serial reference.
func FuzzPointQuery(f *testing.F) {
	f.Add([]byte{8, 0, 7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})
	f.Add([]byte{6, 1, 4, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{64, 3, 60, 3, 9, 9, 60, 3, 60, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%64
		source, target := int32(int(data[1])%n), int32(int(data[2])%n)
		var edges []graph.Edge
		for i := 3; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{From: int32(int(data[i]) % n), To: int32(int(data[i+1]) % n)})
		}
		g, err := graph.Build(n, edges, graph.BuildOptions{Symmetrize: true})
		if err != nil {
			t.Fatal(err)
		}
		checkPointQuery(t, "fuzz", g, serialFrom(t, g, source), source, target, nil)
	})
}

// TestPointQueryPoolHygiene runs point queries and full traversals on
// one workspace: a full traversal after a point query equals one on a
// fresh workspace, and a point query after a full traversal still
// matches the serial reference.
func TestPointQueryPoolHygiene(t *testing.T) {
	g := testRMAT(t, 11, 8, 3)
	src := firstUsable(t, g)
	e := HybridEngine(DefaultM, DefaultN, 1)
	want, err := e.Run(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := serialFrom(t, g, src)
	ws := NewWorkspace(g.NumVertices())
	for i := int32(0); i < 4; i++ {
		target := int32(g.NumVertices()-1) - 97*i
		checkPointQuery(t, "before", g, ref, src, target, ws)
		got, err := e.Run(g, src, ws)
		if err != nil {
			t.Fatal(err)
		}
		exactSame(t, fmt.Sprintf("full traversal after point query %d", i), want, got)
		checkPointQuery(t, "after", g, ref, src, target, ws)
	}
}

// TestPointQueryContracts checks Run's contracts on the point kernel:
// out-of-range ends, a cancelled context returned verbatim, and a
// panic contained as a *PanicError.
func TestPointQueryContracts(t *testing.T) {
	g := pathGraph(t, 10)
	ctx := context.Background()
	for _, c := range [][2]int32{{-1, 3}, {3, 10}, {10, 10}} {
		if _, _, err := PointQuery(ctx, g, c[0], c[1], nil, nil, nil); err == nil {
			t.Errorf("PointQuery(%d,%d) accepted an out-of-range end", c[0], c[1])
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := PointQuery(cancelled, g, 0, 9, nil, nil, nil); err != context.Canceled {
		t.Errorf("cancelled query returned %v, want context.Canceled verbatim", err)
	}
	corrupt := &graph.CSR{Offsets: []int64{0, 1, 2}, Adj: []int32{1, 99}}
	_, _, err := PointQuery(ctx, corrupt, 0, 1, nil, nil, nil)
	_, _, err2 := PointQuery(ctx, corrupt, 1, 0, nil, nil, nil)
	var pe *PanicError
	if err != nil || !errors.As(err2, &pe) {
		t.Errorf("corrupt adjacency: got %v and %v, want nil and a *PanicError", err, err2)
	}
}

// TestPointQueryExpandsSmallerSide pins the step rule on a star, whose
// hub has 49 edges and each leaf one: from either end, the leaf's side
// expands and meets the hub at its only entry, in one step and one
// scan, where expanding the hub's side would test up to 49 entries.
func TestPointQueryExpandsSmallerSide(t *testing.T) {
	g := starGraph(t, 50)
	for _, c := range [][2]int32{{0, 49}, {49, 0}} {
		rec := &lockedRecorder{}
		if dist, _, err := PointQuery(context.Background(), g, c[0], c[1], nil, rec, nil); err != nil || dist != 1 {
			t.Fatalf("PointQuery(%d,%d) = %d, %v; want 1", c[0], c[1], dist, err)
		}
		var levels []obs.Event
		for _, e := range rec.events {
			if e.Kind == obs.KindLevel {
				levels = append(levels, e)
			}
		}
		if len(levels) != 1 || levels[0].FrontierEdges != 1 || levels[0].Scans != 1 {
			t.Errorf("PointQuery(%d,%d) ran levels %+v, want one step of the leaf's side", c[0], c[1], levels)
		}
	}
}

// TestPointQueryEvents checks the telemetry contract: a start event,
// one top-down level event per step with consecutive steps and the
// expanded side's counts, and an end event, all under one TraversalID,
// rendered into a trace that obs.ValidateTrace accepts.
func TestPointQueryEvents(t *testing.T) {
	g := pathGraph(t, 9)
	rec := &lockedRecorder{}
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	dist, _, err := PointQuery(context.Background(), g, 0, 8, nil, obs.Multi(rec, tw), nil)
	if err != nil || dist != 8 {
		t.Fatalf("PointQuery = %d, %v; want 8", dist, err)
	}
	evs := rec.events
	if len(evs) < 3 || evs[0].Kind != obs.KindTraversalStart || evs[len(evs)-1].Kind != obs.KindTraversalEnd {
		t.Fatalf("events %v do not open with a start and close with an end", evs)
	}
	var scans int64
	for i, e := range evs {
		if e.TraversalID != evs[0].TraversalID || e.Engine != PointQueryEngine || e.Root != 0 {
			t.Errorf("event %d: id %d engine %q root %d, want %d %q 0", i, e.TraversalID, e.Engine, e.Root, evs[0].TraversalID, PointQueryEngine)
		}
		if e.Kind != obs.KindLevel {
			continue
		}
		if e.Step != int32(i) || e.Dir != obs.TopDown || e.FrontierVertices != 1 || e.FrontierEdges < 1 || e.Scans < 1 {
			t.Errorf("level event %d: %+v", i, e)
		}
		scans += e.Scans
	}
	// On a path every step but the last deepens one side by a hop, and
	// the last one meets: 8 hops take 8 steps.
	if levels := len(evs) - 2; levels != 8 {
		t.Errorf("%d level events, want 8", levels)
	}
	end := evs[len(evs)-1]
	if end.Detail != "" || end.Discovered != 9 || end.Scans != scans {
		t.Errorf("end event %+v, want 9 vertices held and %d scans", end, scans)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if sum.Levels != 8 {
		t.Errorf("trace holds %d level slices, want 8", sum.Levels)
	}
}
