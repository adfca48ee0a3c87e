package serve

import (
	"context"
	"fmt"
	"time"

	"crossbfs/internal/bfs"
	"crossbfs/internal/obs"
)

// Query kinds (the "kind" field of POST /query).
const (
	// KindReach answers "is target reachable from source, and at what
	// distance" — the OLTP point lookup.
	KindReach = "reach"
	// KindPath returns the BFS tree path source → target.
	KindPath = "path"
	// KindKHop returns the per-level discovery counts out to k hops —
	// the neighborhood-size sweep.
	KindKHop = "khop"
	// KindMulti runs one traversal per source and summarizes each —
	// the OLAP batch shape (bfs.RunMany under one request).
	KindMulti = "multi"
)

// maxMultiSources bounds one multi query's batch so a single request
// cannot monopolize the server (admission counts requests, not roots).
const maxMultiSources = 64

// Query is the POST /query request body. Exactly one kind's operand
// set applies: Target for reach/path, K for khop, Sources for multi.
type Query struct {
	// Graph names the resident graph; may be empty when the server
	// holds exactly one.
	Graph string `json:"graph,omitempty"`
	Kind  string `json:"kind"`
	// Source is the traversal root (reach, path, khop).
	Source int32 `json:"source"`
	// Target is the vertex asked about (reach, path).
	Target int32 `json:"target,omitempty"`
	// K bounds the hop sweep (khop); 0 means the graph's full depth.
	K int32 `json:"k,omitempty"`
	// Sources are the multi-query roots.
	Sources []int32 `json:"sources,omitempty"`
	// DeadlineMS is the per-request deadline in milliseconds; 0 selects
	// the server default, values above the server cap are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SourceResult is one root's summary inside a multi response.
type SourceResult struct {
	Source  int32 `json:"source"`
	Visited int64 `json:"visited"`
	Depth   int32 `json:"depth"`
	Levels  int32 `json:"levels"`
}

// Response is the POST /query success body. Kind-independent fields
// always appear; the rest are populated per kind.
type Response struct {
	Graph string `json:"graph"`
	Kind  string `json:"kind"`
	// Engine is the kernel the planner ran, e.g. "hybrid(64,64)".
	Engine string `json:"engine"`
	// TraversalID keys this query's events in the flight recorder, so
	// a slow query's trace can be fished out of /debug/flight (multi
	// queries get per-root IDs from the dispatcher and report 0 here).
	TraversalID uint64 `json:"traversal_id,omitempty"`
	// ElapsedUS is the service time: admission wait plus traversal plus
	// result shaping, in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`

	// reach and path.
	Reachable *bool `json:"reachable,omitempty"`
	// Distance is the BFS level of the target (reach, path; -1 when
	// unreachable).
	Distance int32 `json:"distance,omitempty"`
	// Path is the BFS-tree path source → target (path kind).
	Path []int32 `json:"path,omitempty"`

	// khop.
	// LevelCounts[i] is the number of vertices first discovered at
	// level i (LevelCounts[0] is 1, the source), truncated at K.
	LevelCounts []int64 `json:"level_counts,omitempty"`
	// WithinK is the number of vertices within K hops of the source.
	WithinK int64 `json:"within_k,omitempty"`

	// multi.
	Results []SourceResult `json:"results,omitempty"`
}

// validate normalizes the query against the target graph and reports
// the first problem as a client error.
func (q *Query) validate(n int) *Error {
	checkVertex := func(label string, v int32) *Error {
		if v < 0 || int(v) >= n {
			return badRequest(fmt.Sprintf("%s %d out of range [0,%d)", label, v, n))
		}
		return nil
	}
	switch q.Kind {
	case KindReach, KindPath:
		if err := checkVertex("source", q.Source); err != nil {
			return err
		}
		return checkVertex("target", q.Target)
	case KindKHop:
		if q.K < 0 {
			return badRequest(fmt.Sprintf("k must be >= 0, got %d", q.K))
		}
		return checkVertex("source", q.Source)
	case KindMulti:
		if len(q.Sources) == 0 {
			return badRequest("multi query needs at least one source")
		}
		if len(q.Sources) > maxMultiSources {
			return badRequest(fmt.Sprintf("multi query carries %d sources, cap is %d", len(q.Sources), maxMultiSources))
		}
		for _, src := range q.Sources {
			if err := checkVertex("source", src); err != nil {
				return err
			}
		}
		return nil
	case "":
		return badRequest(`query has no "kind" (reach, path, khop, multi)`)
	default:
		return badRequest(fmt.Sprintf("unknown query kind %q (reach, path, khop, multi)", q.Kind))
	}
}

// Query executes one query end to end: graph lookup, validation,
// deadline, admission, workspace lease, traversal, result shaping.
// It is the transport-independent core the HTTP handler wraps, so the
// whole contract is testable without sockets. The returned *Error
// carries the HTTP status; per the faulterr boundary contract every
// error leaving here is typed.
//
//lint:boundary
func (s *Server) Query(ctx context.Context, q Query) (*Response, *Error) {
	started := time.Now()
	resp, err := s.query(ctx, q, started)
	elapsed := time.Since(started).Microseconds()
	if err != nil {
		s.stats.observeOutcome(q.Kind, err.Status, elapsed)
		return nil, err
	}
	resp.ElapsedUS = elapsed
	s.stats.observeOutcome(q.Kind, 200, elapsed)
	return resp, nil
}

func (s *Server) query(ctx context.Context, q Query, started time.Time) (*Response, *Error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.inflight.Done()

	sg, serr := s.lookup(q.Graph)
	if serr != nil {
		return nil, serr
	}
	if serr := q.validate(sg.g.NumVertices()); serr != nil {
		return nil, serr
	}
	if i := kindIndex(q.Kind); i >= 0 {
		sg.queries[i].Inc()
	}

	ctx, cancel := context.WithDeadline(ctx, started.Add(s.deadlineFor(q.DeadlineMS)))
	defer cancel()

	if serr := s.gate.enter(ctx); serr != nil {
		return nil, serr
	}
	defer s.gate.leave()

	resp := &Response{Graph: sg.info.Name, Kind: q.Kind, Engine: sg.engine.Name()}
	if q.Kind == KindMulti {
		if serr := s.runMulti(ctx, sg, q, resp); serr != nil {
			return nil, serr
		}
		return resp, nil
	}

	// Single-traversal kinds lease one workspace and stamp the
	// request's TraversalID over the engine's own draw, so the flight
	// recorder groups the traversal under the ID the response reports.
	id := obs.NextTraversalID()
	resp.TraversalID = id
	rec := obs.WithTraversalID(id, sg.rec)
	ws := s.pool.Get(sg.g.NumVertices())
	defer s.pool.Put(ws)
	r, err := sg.engine.RunObserved(ctx, sg.g, q.Source, ws, rec)
	if err != nil {
		return nil, runError(err)
	}
	switch q.Kind {
	case KindReach:
		shapeReach(r, q.Target, resp)
	case KindPath:
		if serr := shapePath(r, q.Source, q.Target, resp); serr != nil {
			return nil, serr
		}
	case KindKHop:
		shapeKHop(r, q.K, resp)
	}
	return resp, nil
}

// runMulti executes the batch kinds through the RunMany dispatcher:
// per-root workspaces from the server pool, per-root TraversalIDs (so
// sampling and flight grouping see each root as one unit), sequential
// roots — the request already holds exactly one admission slot, and
// fanning a batch across slots it never acquired would let one OLAP
// query starve the OLTP mix.
func (s *Server) runMulti(ctx context.Context, sg *servedGraph, q Query, resp *Response) *Error {
	resp.Results = make([]SourceResult, 0, len(q.Sources))
	opts := bfs.ManyOptions{
		Engine:      sg.engine,
		Concurrency: 1,
		Pool:        s.pool,
		Recorder:    sg.rec,
	}
	err := bfs.RunMany(ctx, sg.g, q.Sources, opts, func(i int, root int32, r *bfs.Result) error {
		resp.Results = append(resp.Results, SourceResult{
			Source:  root,
			Visited: r.VisitedCount,
			Depth:   r.Depth(),
			Levels:  int32(r.NumLevels()),
		})
		return nil
	})
	if err != nil {
		return runError(err)
	}
	return nil
}

// shapeReach fills the reach response from a finished traversal.
func shapeReach(r *bfs.Result, target int32, resp *Response) {
	reachable := r.Level[target] != bfs.NotVisited
	resp.Reachable = &reachable
	resp.Distance = r.Level[target]
}

// shapePath walks the BFS tree from target back to source. The walk
// is bounded by the target's level, so a corrupt parent map cannot
// loop; hitting one is an internal error, not a client mistake.
func shapePath(r *bfs.Result, source, target int32, resp *Response) *Error {
	shapeReach(r, target, resp)
	if r.Level[target] == bfs.NotVisited {
		return nil
	}
	hops := int(r.Level[target])
	path := make([]int32, hops+1)
	v := target
	for i := hops; i > 0; i-- {
		path[i] = v
		v = r.Parent[v]
	}
	path[0] = v
	if v != source {
		return &Error{
			Status: 500, Code: "internal",
			Message: fmt.Sprintf("parent walk from %d did not reach source %d", target, source),
		}
	}
	resp.Path = path
	return nil
}

// shapeKHop fills the per-level discovery histogram out to k hops
// from the traversal's level map. k == 0 reports the full depth.
func shapeKHop(r *bfs.Result, k int32, resp *Response) {
	depth := r.Depth()
	if k == 0 || k > depth {
		k = depth
	}
	counts := make([]int64, k+1)
	var within int64
	for _, l := range r.Level {
		if l == bfs.NotVisited {
			continue
		}
		if l <= k {
			counts[l]++
			within++
		}
	}
	resp.LevelCounts = counts
	resp.WithinK = within
}
