package bfs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"crossbfs/internal/graph"
	"crossbfs/internal/invariant"
	"crossbfs/internal/obs"
)

// StepInfo is what a switching policy sees before each expansion step:
// the quantities of the paper's Fig. 4 plus the graph totals they are
// compared against.
type StepInfo struct {
	// Step is the paper's 1-based level number: step 1 expands the
	// frontier {source}.
	Step int
	// FrontierVertices is |V|cq, the current-queue vertex count.
	FrontierVertices int64
	// FrontierEdges is |E|cq, the sum of frontier vertex degrees. The
	// kernels sum the degrees of the vertices they discover, and those
	// vertices are exactly the next frontier, so it costs no pass of
	// its own.
	FrontierEdges int64
	// UnvisitedVertices counts vertices without a level yet.
	UnvisitedVertices int64
	// TotalVertices and TotalEdges are |V| and |E| (directed entries).
	TotalVertices int64
	TotalEdges    int64
}

// Policy selects the direction for each expansion step.
type Policy interface {
	Choose(StepInfo) Direction
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(StepInfo) Direction

// Choose implements Policy.
func (f PolicyFunc) Choose(s StepInfo) Direction { return f(s) }

// fixedPolicy always chooses one direction.
type fixedPolicy Direction

// Choose implements Policy.
func (p fixedPolicy) Choose(StepInfo) Direction { return Direction(p) }

// AlwaysTopDown and AlwaysBottomUp are the single-direction baselines
// (the paper's *TD and *BU columns).
var (
	AlwaysTopDown  Policy = fixedPolicy(TopDown)
	AlwaysBottomUp Policy = fixedPolicy(BottomUp)
)

// DefaultM and DefaultN are the fallback switching thresholds: the
// repo-wide tuned defaults used by the cmd tools and experiments.
const (
	DefaultM = 64
	DefaultN = 64
)

// MN is the paper's switching rule (Fig. 4): run bottom-up when
// |E|cq >= |E|/M or |V|cq >= |V|/N, top-down otherwise. Larger M or N
// switches to bottom-up earlier. Both must be positive; a
// non-positive or NaN threshold makes Choose fall back to the
// DefaultM/DefaultN constants. Run and the sharded engine still
// reject such a policy up front via Validate; the fallback exists for
// direct Choose callers like the simulator's policy replay, where a
// degenerate M would otherwise silently disable bottom-up through a
// division by zero.
type MN struct {
	M, N float64
}

// normalized returns p with non-positive or NaN thresholds replaced
// by the defaults, giving Choose defined behaviour on any input.
func (p MN) normalized() MN {
	if !(p.M > 0) { // catches zero, negatives, and NaN
		p.M = DefaultM
	}
	if !(p.N > 0) {
		p.N = DefaultN
	}
	return p
}

// Choose implements Policy.
func (p MN) Choose(s StepInfo) Direction {
	p = p.normalized()
	if float64(s.FrontierEdges) >= float64(s.TotalEdges)/p.M ||
		float64(s.FrontierVertices) >= float64(s.TotalVertices)/p.N {
		return BottomUp
	}
	return TopDown
}

// Validate reports whether the thresholds are usable. The comparisons
// are written so NaN fails them too — FuzzHeuristicSwitch caught that
// `p.M <= 0` lets NaN through.
func (p MN) Validate() error {
	if !(p.M > 0) || !(p.N > 0) {
		return fmt.Errorf("bfs: MN policy requires positive M and N, got (%g, %g)", p.M, p.N)
	}
	return nil
}

// Options configure a traversal.
type Options struct {
	// Policy picks the direction per step. nil means AlwaysTopDown.
	Policy Policy
	// Workers is the most workers a level fans out to; 0 means
	// GOMAXPROCS, 1 forces the serial kernels. Each level sizes its
	// own fan-out from its work (frontier edges top-down, unvisited
	// vertices with an edge bottom-up) and runs its serial kernel
	// inline when that work spans one grain.
	Workers int
	// CheckInvariants enables the runtime verification layer
	// (internal/invariant): per-step frontier/visited coherence checks
	// and a post-traversal parent-tree + level-monotonicity check.
	// A violation aborts the traversal with an error. Costs O(V/64)
	// per step plus O(V+E) once; the test suites keep it on, and
	// production callers can enable it to fence suspected races.
	CheckInvariants bool
	// Recorder receives the traversal's telemetry events (see
	// internal/obs): traversal start/end, one event per expansion step
	// with the Fig. 4 work counts, and direction switches. nil (or
	// obs.Nop) disables telemetry entirely — no clock reads, no event
	// construction — preserving the steady-state 0 allocs/op gate.
	Recorder obs.Recorder
	// Label names the engine in emitted events (obs.Event.Engine).
	// Empty means "policy".
	Label string
}

// Run executes a level-synchronized BFS from source, choosing the
// direction of each step with opts.Policy and switching the frontier
// representation (queue for top-down, bitmap for bottom-up) as needed.
// It is the one policy-driven traversal: every policy engine, the
// simulator's resilient executor and core.Measure run through it.
//
// Every buffer — the result's parent/level maps, both frontier queues,
// the worker shards, and the visited/frontier bitmaps — comes from ws
// and is reset, not reallocated, so steady-state repeated traversals
// allocate nothing. ws may be nil (a one-shot workspace is created).
// The returned Result aliases ws's storage and is valid only until
// ws's next traversal; Clone it for durability.
//
// Fault-tolerance contract:
//
//   - Cancellation is honored within one level boundary (serial
//     kernels) or one grain boundary (parallel kernels); the error is
//     ctx.Err() verbatim so callers can match context.Canceled /
//     context.DeadlineExceeded.
//   - A panic anywhere in the traversal — a kernel worker, the policy's
//     Choose, the invariant checker — is recovered and returned as a
//     *PanicError instead of killing the process. Worker goroutines
//     recover their own panics and hand them to the coordinating
//     goroutine; by the time an error returns, every worker has exited.
//   - On any error the workspace is quiescent and pool-clean: no
//     goroutine holds a reference, and the next ws.begin fully resets
//     it, so a recycled post-cancel workspace behaves bit-identically
//     to a fresh one.
func Run(ctx context.Context, g *graph.CSR, source int32, opts Options, ws *Workspace) (_ *Result, err error) {
	var (
		o    tobs
		done *Result
	)
	// Registered before the recover defer so it runs after it (LIFO)
	// and sees the final error — including a contained panic.
	defer func() { o.end(done, err) }()
	defer func() { recoverToError(recover(), &err) }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkSource(g, source); err != nil {
		return nil, err
	}
	policy := opts.Policy
	if policy == nil {
		policy = AlwaysTopDown
	}
	if mn, ok := policy.(MN); ok {
		if err := mn.Validate(); err != nil {
			return nil, err
		}
	}
	reusedWS := ws != nil
	if ws == nil {
		ws = NewWorkspace(g.NumVertices())
	}
	o = observeStart(opts.Recorder, g, source, opts.label(), reusedWS)

	n := g.NumVertices()
	r := ws.begin(g, source)
	visited := ws.visited
	visited.Set(int(source))

	queue := append(ws.queue[:0], source) // valid when queueValid
	spare := ws.spare                     // top-down output buffer
	front := ws.front                     // valid when !queueValid
	next := ws.next                       // bottom-up scratch
	queueValid := true
	frontierVertices := int64(1)
	frontierEdges := g.Degree(source)
	unvisited := int64(n) - 1
	level := int32(1) // distance assigned by the upcoming step
	totalEdges := g.NumEdges()
	prevDir := Direction(-1) // no direction chosen yet

	for frontierVertices > 0 {
		// Level-boundary cancellation point: between two expansion
		// steps no kernel goroutine is alive, so stopping here leaves
		// the workspace quiescent for its next begin().
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		info := StepInfo{
			Step:              int(level),
			FrontierVertices:  frontierVertices,
			FrontierEdges:     frontierEdges,
			UnvisitedVertices: unvisited,
			TotalVertices:     int64(n),
			TotalEdges:        totalEdges,
		}
		dir := policy.Choose(info)

		var stepStart time.Time
		if o.live {
			stepStart = time.Now()
			if prevDir >= 0 && dir != prevDir {
				o.event(obs.Event{
					Kind: obs.KindSwitch, Step: level,
					Dir: obs.Direction(dir), Wall: stepStart,
				})
			}
		}
		prevDir = dir

		// nextEdges is the degree sum of the vertices this step
		// discovers: the next step's |E|cq.
		var foundCount, scanCount, nextEdges int64
		switch dir {
		case TopDown:
			if !queueValid {
				queue = front.AppendSet(queue[:0])
				queueValid = true
			}
			out, degrees, err := topDownLevel(ctx, g, r, visited, queue, spare[:0], level, frontierEdges, opts.Workers, ws)
			if err != nil {
				return nil, err
			}
			queue, spare = out, queue
			foundCount, nextEdges = int64(len(queue)), degrees
		case BottomUp:
			if queueValid {
				front.Reset()
				for _, v := range queue {
					front.Set(int(v))
				}
				queueValid = false
			}
			if opts.CheckInvariants {
				if err := invariant.FrontierSubset(front, visited); err != nil {
					return nil, fmt.Errorf("bfs: step %d: %w", level, err)
				}
			}
			var err error
			foundCount, scanCount, nextEdges, err = bottomUpLevel(ctx, g, r, visited, front, next, level, unvisited, opts.Workers, ws)
			if err != nil {
				return nil, err
			}
			if opts.CheckInvariants {
				// Before the merge: a bottom-up step must only have
				// discovered vertices that were still unvisited.
				if err := invariant.NextDisjoint(next, visited); err != nil {
					return nil, fmt.Errorf("bfs: step %d: %w", level, err)
				}
			}
			visited.Or(next)
			front, next = next, front
		default:
			return nil, errors.New("bfs: policy returned unknown direction")
		}

		r.Directions = append(r.Directions, dir)
		r.StepScans = append(r.StepScans, scanCount)
		if o.live {
			o.event(obs.Event{
				Kind: obs.KindLevel, Step: level, Dir: obs.Direction(dir),
				FrontierVertices: info.FrontierVertices,
				FrontierEdges:    info.FrontierEdges,
				Discovered:       foundCount,
				Unvisited:        info.UnvisitedVertices,
				Scans:            scanCount,
				Grains:           ws.fan.grains,
				Workers:          int32(ws.fan.workers),
				Wall:             stepStart,
				WallDur:          time.Since(stepStart),
			})
		}
		r.TraversedEdges += frontierEdges
		frontierVertices, frontierEdges = foundCount, nextEdges
		unvisited -= foundCount
		level++
	}

	if opts.CheckInvariants {
		if err := invariant.Check(g, source, r.Parent, r.Level); err != nil {
			return nil, fmt.Errorf("bfs: post-traversal: %w", err)
		}
	}
	ws.retain(r, queue, spare)
	r.VisitedCount = int64(n) - unvisited
	done = r
	return r, nil
}

// label names the traversal in telemetry events.
func (o Options) label() string {
	if o.Label != "" {
		return o.Label
	}
	return "policy"
}
