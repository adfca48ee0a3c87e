package bfs

import (
	"context"
	"fmt"
	"slices"
	"time"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// PointQueryEngine names the point-to-point kernel in telemetry events
// and in serving responses.
const PointQueryEngine = "bidirectional"

// pointSide is one half of a two-sided search: the vertices it holds,
// its frontier, the frontier's |E|cq, and the frontier's distance from
// the side's root.
type pointSide struct {
	held     *bitmap.Bitmap
	frontier []int32
	edges    int64
	depth    int32
}

// PointQuery returns the hop distance from source to target, or
// NotVisited when no path joins them. It grows one top-down frontier
// from source and one from target, always expands the side whose
// frontier has the smaller |E|cq (ties go to the source side), and
// stops at the first neighbour that the other side already holds. It
// runs serially and touches only what the two searches reach, where a
// full traversal visits the whole component.
//
// The first meeting is exact. While the two sides' vertex sets are
// disjoint, d(source, target) > ds + dt for their depths ds and dt:
// otherwise the vertex at position ds on a shortest path would lie in
// both sets. A neighbour that the other side holds closes a walk of at
// most ds + 1 + dt hops, so the walk's length is d(source, target).
//
// When path is non-nil, PointQuery appends a shortest path to it,
// source first and target last, and returns the extended slice. Every
// hop is an edge, and vertex i is at distance i from source. A nil
// path builds none.
//
// g must be symmetric: the target side reads v's list as v's
// in-edges, as the bottom-up kernel does. graph.Build with Symmetrize
// and graph.ReadFrom guarantee it.
//
// The workspace contract is Run's: ws may be nil, its buffers are
// reset rather than reallocated (the two membership bitmaps by word
// clears, with no O(|V|) fill), and a query through a reused workspace
// with a nil or Nop recorder allocates nothing. The query leaves the
// workspace's earlier Result invalid. Cancellation is observed before
// each step and returns ctx.Err() verbatim; a panic returns as a
// *PanicError. rec sees a start event, one top-down level event per
// step carrying the expanded side's work, and an end event, all under
// one TraversalID.
func PointQuery(ctx context.Context, g *graph.CSR, source, target int32, ws *Workspace, rec obs.Recorder, path []int32) (_ int32, _ []int32, err error) {
	var (
		o tobs
		// totals holds the end event's counts: VisitedCount the vertices
		// the two sides hold, TraversedEdges the entries they tested.
		totals Result
	)
	defer func() { o.end(&totals, err) }()
	defer func() { recoverToError(recover(), &err) }()
	if err := ctx.Err(); err != nil {
		return NotVisited, path, err
	}
	if err := checkSource(g, source); err != nil {
		return NotVisited, path, err
	}
	if err := checkSource(g, target); err != nil {
		return NotVisited, path, err
	}
	n := g.NumVertices()
	reused := ws != nil
	if reused {
		ws.ensure(n)
	} else {
		ws = NewWorkspace(n)
	}
	o = observeStart(rec, g, source, PointQueryEngine, reused)
	totals.VisitedCount = 1
	if source == target {
		if path != nil {
			path = append(path, source)
		}
		return 0, path, nil
	}

	// Both sides share ws.parent: their vertex sets stay disjoint until
	// the stop, and an entry is read only for a vertex whose membership
	// bit this query set.
	parent := ws.parent
	ws.visited.Set(int(source))
	ws.front.Set(int(target))
	parent[source], parent[target] = source, target
	totals.VisitedCount = 2
	s := pointSide{held: ws.visited, frontier: append(ws.queue[:0], source), edges: g.Degree(source)}
	t := pointSide{held: ws.front, frontier: append(ws.spare[:0], target), edges: g.Degree(target)}
	out := ws.aux[:0]
	for step := int32(1); len(s.frontier) > 0 && len(t.frontier) > 0; step++ {
		if err := ctx.Err(); err != nil {
			return NotVisited, path, err
		}
		near, far := &s, &t
		if t.edges < s.edges {
			near, far = &t, &s
		}
		var stepStart time.Time
		if o.live {
			stepStart = time.Now()
		}
		var (
			degrees, scans int64
			meetU, meetV   int32 = -1, -1
		)
		out = out[:0]
	expand:
		for _, u := range near.frontier {
			for _, v := range g.Neighbors(u) {
				scans++
				if near.held.Get(int(v)) {
					continue
				}
				if far.held.Get(int(v)) {
					meetU, meetV = u, v
					break expand
				}
				near.held.Set(int(v))
				parent[v] = u
				out = append(out, v)
				degrees += g.Degree(v)
			}
		}
		if o.live {
			o.event(obs.Event{
				Kind: obs.KindLevel, Step: step, Dir: obs.TopDown,
				FrontierVertices: int64(len(near.frontier)),
				FrontierEdges:    near.edges,
				Discovered:       int64(len(out)),
				Unvisited:        int64(n) - totals.VisitedCount,
				Scans:            scans,
				Grains:           1,
				Workers:          1,
				Wall:             stepStart,
				WallDur:          time.Since(stepStart),
			})
		}
		totals.VisitedCount += int64(len(out))
		totals.TraversedEdges += scans
		if meetU >= 0 {
			ws.queue, ws.spare, ws.aux = s.frontier, t.frontier, out
			// u sits at the expanding side's depth, and the argument
			// above puts v at the other side's.
			dist := near.depth + 1 + far.depth
			if path != nil {
				a, b := meetU, meetV
				if near == &t {
					a, b = meetV, meetU
				}
				if path, err = appendPath(path, parent, source, a, s.depth, target, b, t.depth); err != nil {
					return NotVisited, path, err
				}
			}
			return dist, path, nil
		}
		near.frontier, out = out, near.frontier
		near.edges = degrees
		near.depth++
	}
	ws.queue, ws.spare, ws.aux = s.frontier, t.frontier, out
	return NotVisited, path, nil
}

// appendPath appends source → a, then b → target, to path: a's parent
// chain reversed, then b's chain, where a is da hops from source, b is
// db hops from target, and a and b are adjacent. Each walk takes
// exactly its hop count, so a corrupt parent map cannot loop; a chain
// that does not end at its root is an error.
func appendPath(path, parent []int32, source, a, da, target, b, db int32) ([]int32, error) {
	start := len(path)
	path = appendChain(path, parent, a, da)
	slices.Reverse(path[start:])
	path = appendChain(path, parent, b, db)
	if path[start] != source || path[len(path)-1] != target {
		return path, fmt.Errorf("bfs: parent walk from %d and %d did not reach %d and %d", a, b, source, target)
	}
	return path, nil
}

// appendChain appends v and the hops vertices of its parent chain.
func appendChain(path, parent []int32, v, hops int32) []int32 {
	for ; hops > 0; hops-- {
		path = append(path, v)
		v = parent[v]
	}
	return append(path, v)
}
