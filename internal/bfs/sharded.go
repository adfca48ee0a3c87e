package bfs

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/fault"
	"crossbfs/internal/graph"
	"crossbfs/internal/invariant"
	"crossbfs/internal/obs"
	"crossbfs/internal/part"
)

// Sharded is the partitioned direction-optimizing engine: N goroutine
// "ranks" each own a contiguous, 64-aligned vertex range of a 1D
// partition (internal/part) and run the top-down/bottom-up level
// kernels over their own sub-CSR, exchanging frontier state once per
// level. It reproduces the distributed-memory formulation of the
// paper's heuristic (Buluç–Beamer, PAPERS.md) inside one process:
//
//   - Top-down levels scatter remote claims: an edge (u, v) whose
//     target v lives on another rank becomes a (v, u) message in the
//     owner's outbox slot, applied by the owner after a barrier — the
//     owner's visited bit arbitrates duplicates, making every ghost
//     update exactly-once no matter how many ranks propose the same v.
//   - Bottom-up levels all-gather the frontier: each rank serializes
//     its owned slice of the current frontier as a compressed word
//     delta (bitmap.AppendDelta) and every rank ORs the others' deltas
//     into a private full-graph replica before scanning its own rows.
//   - The direction is a collective decision: each level the ranks
//     all-reduce |V|cq, |E|cq and the unvisited count, and the last
//     rank to arrive runs the (single, shared) switching policy on the
//     global sums — so every rank changes direction together, and the
//     switch lands exactly where the single-box engine's would
//     (TestShardedDirectionsMatchHybrid pins this).
//
// Sharing discipline: the result's parent/level arrays and the visited
// bitmap are shared across ranks, but every write lands in the
// writer's own [Lo, Hi) range, and the 64-aligned partition boundaries
// mean not even a bitmap word straddles two owners — so the kernels
// use plain stores, no atomics. Cross-rank data moves only through the
// outbox/delta slots, which are written before and read after a
// barrier (the barrier's mutex + broadcast is the happens-before
// edge). `make race` runs this engine through the sharded tests.
type Sharded struct {
	ranks int
	// policy/newPolicy mirror policyEngine: exactly one policy instance
	// decides for all ranks each traversal (the collective's leader
	// calls Choose once per level), so stateful heuristics see the same
	// step sequence they would see on one box.
	policy          Policy
	newPolicy       func() Policy
	name            string
	checkInvariants bool

	// faults is the rank-fault injection schedule; when it carries
	// rank-targeted events (fault.Schedule.HasRankFaults) the engine
	// arms its fault-tolerance machinery: per-level frontier
	// checkpoints, the barrier watchdog, and survivor recovery. See
	// sharded_ft.go and DESIGN.md §4e.
	faults *fault.Schedule
	ftOpts FTOptions

	// Partition cache: RunMany-style workloads traverse one graph from
	// many roots, and the partition depends only on (graph, ranks).
	mu      sync.Mutex
	cachedG *graph.CSR
	cachedP *part.Partitioned
}

// NewShardedEngine returns the partitioned engine with the paper's
// (M, N) switching rule decided collectively across ranks.
func NewShardedEngine(ranks int, m, n float64) *Sharded {
	return &Sharded{
		ranks:  ranks,
		policy: MN{M: m, N: n},
		name:   fmt.Sprintf("sharded(%d,hybrid(%g,%g))", ranks, m, n),
	}
}

// NewShardedAdaptive returns a partitioned engine around a stateful
// switching heuristic: newPolicy runs once per traversal and the
// resulting policy instance makes every level's collective decision.
func NewShardedAdaptive(ranks int, inner string, newPolicy func() Policy) *Sharded {
	return &Sharded{
		ranks:     ranks,
		newPolicy: newPolicy,
		name:      fmt.Sprintf("sharded(%d,%s)", ranks, inner),
	}
}

// Ranks returns the engine's rank count.
func (e *Sharded) Ranks() int { return e.ranks }

// SetFaults installs a fault-injection schedule. Schedules carrying
// rank-targeted events (rankcrash/ranklag/exchdrop) arm the engine's
// checkpoint-and-recover machinery; device-level kinds are ignored
// here (they belong to the simulator ladder in internal/core). Like
// the Schedule itself, an engine with faults installed must not run
// concurrent traversals.
func (e *Sharded) SetFaults(s *fault.Schedule) { e.faults = s }

// SetFTOptions overrides the fault-tolerance tuning knobs (timeouts,
// backoff, lag unit). Zero fields keep their defaults.
func (e *Sharded) SetFTOptions(o FTOptions) { e.ftOpts = o }

// SetCheckInvariants toggles the post-traversal parent-tree check.
func (e *Sharded) SetCheckInvariants(on bool) { e.checkInvariants = on }

// Name implements Engine.
func (e *Sharded) Name() string { return e.name }

// Run implements Engine.
func (e *Sharded) Run(g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunContext(context.Background(), g, source, ws)
}

// RunContext implements Engine.
func (e *Sharded) RunContext(ctx context.Context, g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunObserved(ctx, g, source, ws, nil)
}

// partition returns the cached partition of g, building it on first
// use (or when the engine moves to a different graph).
func (e *Sharded) partition(g *graph.CSR) (*part.Partitioned, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cachedG == g && e.cachedP != nil {
		return e.cachedP, nil
	}
	p, err := part.Partition(g, e.ranks)
	if err != nil {
		return nil, err
	}
	e.cachedG, e.cachedP = g, p
	return p, nil
}

// RunObserved implements Engine. It carries the same fault-tolerance
// contract as RunWithContext: ctx.Err() verbatim on cancellation
// (honored within ctxStride kernel iterations), contained panics as
// *PanicError, and a quiescent, pool-clean workspace on every exit —
// all rank goroutines have terminated before any error returns.
func (e *Sharded) RunObserved(ctx context.Context, g *graph.CSR, source int32, ws *Workspace, rec obs.Recorder) (_ *Result, err error) {
	var (
		o    tobs
		done *Result
	)
	defer func() { o.end(done, err) }()
	defer func() { recoverToError(recover(), &err) }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkSource(g, source); err != nil {
		return nil, err
	}
	if e.ranks < 1 {
		return nil, fmt.Errorf("bfs: sharded engine needs >= 1 rank, got %d", e.ranks)
	}
	pol := e.policy
	if e.newPolicy != nil {
		pol = e.newPolicy()
	}
	if pol == nil {
		pol = AlwaysTopDown
	}
	if mn, ok := pol.(MN); ok {
		if err := mn.Validate(); err != nil {
			return nil, err
		}
	}
	p, err := e.partition(g)
	if err != nil {
		return nil, err
	}

	reusedWS := ws != nil
	if ws == nil {
		ws = NewWorkspace(g.NumVertices())
	}
	o = observeStart(rec, g, source, e.name, reusedWS)

	r := ws.begin(g, source)
	ws.visited.Set(int(source))

	c := &shardedRun{
		g: g, p: p, res: r, visited: ws.visited, policy: pol,
		ctx: ctx, o: &o, ranks: e.ranks, source: source,
		outboxes: make([][][]int32, e.ranks),
		deltas:   make([][]byte, e.ranks),
		prevDir:  Direction(-1),
	}
	c.cond = sync.NewCond(&c.mu)
	if e.faults.HasRankFaults() {
		e.faults.Reset()
		c.ft = newShardedFT(e.faults, e.ftOpts, e.ranks)
	}

	states := make([]*rankState, e.ranks)
	for i := range states {
		states[i] = getRankState(e.ranks, g.NumVertices())
	}
	var wg sync.WaitGroup
	if c.ft != nil {
		// The watchdog signals its own exit through ft.wdDone; keeping
		// its lifecycle state off this frame keeps the no-fault path
		// free of the escape-analysis allocation a captured WaitGroup
		// would cost every traversal.
		go c.watchdog(c.ft.wdStop)
	}
	//lint:ctx-ok each rank checks ctx every level and every ctxStride kernel iterations; the spawn loop itself is O(ranks)
	for rank := 0; rank < e.ranks; rank++ {
		wg.Add(1)
		go func(rank int, rs *rankState) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					var perr error
					recoverToError(v, &perr)
					c.fail(perr)
				}
			}()
			c.rankLoop(rank, rs)
		}(rank, states[rank])
	}
	// Every rank goroutine has exited before Run returns — on success,
	// cancellation, and panic alike — so the workspace and the pooled
	// rank states are quiescent whenever the caller sees them again.
	wg.Wait()
	if c.ft != nil {
		close(c.ft.wdStop)
		<-c.ft.wdDone
		r.Recovery = c.ft.stats
	}
	for _, rs := range states {
		putRankState(rs)
	}
	if c.err != nil {
		return nil, c.err
	}

	if e.checkInvariants {
		if err := invariant.Check(g, source, r.Parent, r.Level); err != nil {
			return nil, fmt.Errorf("bfs: sharded post-traversal: %w", err)
		}
	}
	ws.retain(r, ws.queue, ws.spare)
	done = r
	return r, nil
}

// rankState is the pooled per-rank working set: the owned frontier
// queues, the private full-graph frontier replica for bottom-up
// levels, the per-destination outboxes, and the delta scratch buffer.
type rankState struct {
	queue, next []int32
	out         [][]int32
	delta       []byte
	front       *bitmap.Bitmap

	// Fault-tolerance scratch, touched only by rankLoopFT: ck is the
	// checkpoint encode/decode bitmap, segDeltas the per-owned-segment
	// bottom-up delta buffers (indexed by segment id; a rank may own
	// several segments after adopting a dead rank's range).
	ck        *bitmap.Bitmap
	segDeltas [][]byte
}

// rankStatePool recycles rank states across traversals (and across
// engines — the state carries no graph identity; everything is resized
// or truncated before reuse).
var rankStatePool = sync.Pool{New: func() any { return &rankState{} }}

func getRankState(ranks, n int) *rankState {
	rs := rankStatePool.Get().(*rankState)
	if len(rs.out) < ranks {
		grown := make([][]int32, ranks)
		copy(grown, rs.out)
		rs.out = grown
	}
	if rs.front == nil {
		rs.front = bitmap.New(n)
	}
	return rs
}

func putRankState(rs *rankState) { rankStatePool.Put(rs) }

// shardedRun is the shared state of one sharded traversal: the global
// result arrays, the cross-rank exchange slots, and the collective.
type shardedRun struct {
	g       *graph.CSR
	p       *part.Partitioned
	res     *Result
	visited *bitmap.Bitmap
	policy  Policy
	ctx     context.Context
	o       *tobs
	ranks   int
	source  int32

	// Exchange slots, indexed by source rank. A rank writes only its
	// own slot before the exchange barrier and reads the others only
	// after it.
	outboxes [][][]int32 // [src][dst] flat (v, u) claim pairs (top-down)
	deltas   [][]byte    // [src] owned-range frontier word delta (bottom-up)

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
	err     error

	// ft is the fault-tolerance state, nil unless the installed
	// schedule carries rank faults — the no-fault hot path never
	// branches past this nil check. Guarded by mu. See sharded_ft.go.
	ft *shardedFT

	// Collective state, mutated only under mu. The choose round sums
	// the frontier quantities on arrival and the leader runs the
	// policy; the end round sums the level outcome and the leader
	// appends the per-step logs and emits the level event.
	vcq, ecq, unvisited int64
	dir                 Direction
	runDone             bool
	stepStart           time.Time
	prevDir             Direction

	found, scans              int64
	frontierBytes, ghostBytes int64
	ghostSent, ghostApplied   int64
}

// fail records the first error and wakes every rank blocked in a
// barrier. Later failures are dropped: the first error is the cause,
// anything after it is unwinding noise.
func (c *shardedRun) fail(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
}

// round is the collective primitive: every rank runs arrive under the
// lock as it shows up, the last rank to arrive additionally runs
// leader, and then all are released. Any rank's fail() aborts every
// waiter with the recorded error, and a rank arriving after a failure
// returns it immediately — so no round can deadlock on a dead rank.
//
// Under fault tolerance (c.ft != nil) membership is dynamic: the
// round completes when every *live* rank has arrived, and epoch is
// the caller's view of the membership generation. A caller holding a
// stale epoch is rejected before it can contribute (errEpochChanged →
// it unwinds into recovery and re-arrives with fresh sums), and a
// fenced caller gets errFenced and exits. Both checks happen again
// after the wait, so a fence mid-round aborts every waiter — unless
// the round already completed, in which case the membership change
// surfaces at the next round's entry so all survivors agree on the
// replay level.
func (c *shardedRun) round(rank int, epoch uint64, arrive, leader func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	ft := c.ft
	target := c.ranks
	if ft != nil {
		if ft.dead[rank] {
			return errFenced
		}
		if ft.epoch != epoch {
			return errEpochChanged
		}
		ft.present[rank] = true
		target = ft.live
	}
	if arrive != nil {
		arrive()
	}
	c.arrived++
	if c.arrived >= target {
		c.arrived = 0
		if ft != nil {
			for i := range ft.present {
				ft.present[i] = false
			}
		}
		if leader != nil {
			leader()
		}
		c.gen++
		c.cond.Broadcast()
		return c.err
	}
	gen := c.gen
	for c.gen == gen && c.err == nil && (ft == nil || (ft.epoch == epoch && !ft.dead[rank])) {
		c.cond.Wait()
	}
	if c.err != nil {
		return c.err
	}
	if c.gen != gen {
		return nil
	}
	if ft.dead[rank] {
		return errFenced
	}
	return errEpochChanged
}

// ctxStride is how many kernel iterations run between context checks
// inside a level; cancellation is honored within one stride.
const ctxStride = 4096

// rankLoop is one rank's whole traversal. Any error has been published
// via fail (or observed from a round) by the time it returns.
func (c *shardedRun) rankLoop(rank int, rs *rankState) {
	if c.ft != nil {
		// Fault tolerance swaps in the multi-segment kernels and the
		// checkpoint/recovery loop; the no-fault hot path below stays
		// untouched.
		c.rankLoopFT(rank, rs)
		return
	}
	sh := c.p.Shards[rank]
	lo, hi := int(sh.Lo), int(sh.Hi)
	loW, hiW := c.p.Layout.WordRange(rank)
	sub := sh.Sub
	layout := &c.p.Layout

	queue := rs.queue[:0]
	next := rs.next[:0]
	// Keep grown buffers pooled no matter which exit path runs.
	defer func() { rs.queue, rs.next = queue, next }()

	unvisitedLocal := int64(hi - lo)
	if sh.Owns(c.source) {
		queue = append(queue, c.source)
		unvisitedLocal--
	}
	step := int32(1)

	for {
		if err := c.ctx.Err(); err != nil {
			c.fail(err)
			return
		}
		var ecq int64
		for _, v := range queue {
			ecq += sub.Degree(v - int32(lo))
		}
		dir, runDone, err := c.chooseRound(rank, 0, int64(len(queue)), ecq, unvisitedLocal, step)
		if err != nil || runDone {
			return
		}

		next = next[:0]
		var found, scans int64
		var frontierBytes, ghostSentBytes int64
		var ghostRecv, ghostApplied int64

		switch dir {
		case TopDown:
			out := rs.out[:c.ranks]
			for d := range out {
				out[d] = out[d][:0]
			}
			parent, level := c.res.Parent, c.res.Level
			for i, u := range queue {
				if i%ctxStride == ctxStride-1 {
					if err := c.ctx.Err(); err != nil {
						c.fail(err)
						return
					}
				}
				for _, v := range sub.Neighbors(u - int32(lo)) {
					if int(v) >= lo && int(v) < hi {
						if !c.visited.Get(int(v)) {
							c.visited.Set(int(v))
							parent[v] = u   //lint:shared-ok rank-owned row: v is in this rank's [Lo,Hi) and no other rank writes there
							level[v] = step //lint:shared-ok rank-owned row: v is in this rank's [Lo,Hi) and no other rank writes there
							next = append(next, v)
						}
					} else {
						out[layout.Owner(v)] = append(out[layout.Owner(v)], v, u)
					}
				}
			}
			c.outboxes[rank] = out
			for d, pairs := range out {
				if d != rank {
					ghostSentBytes += int64(len(pairs)) * 4
				}
			}
			// Exchange: barrier so every outbox is complete, then apply
			// the claims addressed to this rank.
			applyGhosts := func() error {
				if err := c.round(rank, 0, nil, nil); err != nil {
					return err
				}
				for s := 0; s < c.ranks; s++ {
					if s == rank {
						continue
					}
					in := c.outboxes[s][rank]
					for i := 0; i+1 < len(in); i += 2 {
						v, u := in[i], in[i+1]
						ghostRecv++
						if !c.visited.Get(int(v)) {
							c.visited.Set(int(v))
							parent[v] = u   //lint:shared-ok rank-owned row: the outbox routed v to its owner and only the owner applies it
							level[v] = step //lint:shared-ok rank-owned row: the outbox routed v to its owner and only the owner applies it
							next = append(next, v)
							ghostApplied++
						}
					}
				}
				return nil
			}
			if err := c.observeExchange(rank, step, dir, &ghostSentBytes, applyGhosts); err != nil {
				return
			}
			if c.o.live && c.ranks > 1 {
				c.o.event(obs.Event{
					Kind: obs.KindGhostUpdate, Step: step, Dir: obs.DirNone,
					Index: int32(rank), Scans: ghostRecv, Discovered: ghostApplied,
					Bytes: ghostRecv * 8, Wall: time.Now(),
				})
			}
			found = int64(len(next))

		case BottomUp:
			// Materialize this rank's owned slice of the current
			// frontier, publish it as a compressed word delta, and merge
			// the other ranks' deltas into the private replica.
			rs.front.Resize(c.g.NumVertices()) // clear + fit
			for _, v := range queue {
				rs.front.Set(int(v))
			}
			if c.ranks > 1 {
				delta := rs.front.AppendDelta(rs.delta[:0], loW, hiW)
				rs.delta = delta
				c.deltas[rank] = delta
				frontierBytes = int64(len(delta))
			}
			gatherFrontier := func() error {
				if err := c.round(rank, 0, nil, nil); err != nil {
					return err
				}
				for s := 0; s < c.ranks; s++ {
					if s == rank {
						continue
					}
					sLoW, _ := c.p.Layout.WordRange(s)
					if _, err := rs.front.ApplyDelta(c.deltas[s], sLoW); err != nil {
						err = fmt.Errorf("bfs: sharded rank %d: %w", rank, err)
						c.fail(err)
						return err
					}
				}
				return nil
			}
			if err := c.observeExchange(rank, step, dir, &frontierBytes, gatherFrontier); err != nil {
				return
			}
			// Bottom-up scan of the owned rows against the replica.
			parent, level := c.res.Parent, c.res.Level
			for v := lo; v < hi; v++ {
				if v%ctxStride == ctxStride-1 {
					if err := c.ctx.Err(); err != nil {
						c.fail(err)
						return
					}
				}
				if c.visited.Get(v) {
					continue
				}
				for _, u := range sub.Neighbors(int32(v - lo)) {
					scans++
					if rs.front.Get(int(u)) {
						c.visited.Set(v)
						parent[v] = u   //lint:shared-ok rank-owned row: v iterates this rank's [Lo,Hi) only
						level[v] = step //lint:shared-ok rank-owned row: v iterates this rank's [Lo,Hi) only
						next = append(next, int32(v))
						break
					}
				}
			}
			found = int64(len(next))

		default:
			c.fail(fmt.Errorf("bfs: policy returned unknown direction %d", dir))
			return
		}

		if err := c.endRound(rank, 0, step, dir, found, scans, frontierBytes, ghostSentBytes, ghostRecv, ghostApplied); err != nil {
			return
		}
		unvisitedLocal -= found
		queue, next = next, queue
		step++
	}
}

// chooseRound all-reduces (|V|cq, |E|cq, unvisited) and has the leader
// run the switching policy on the global sums. It returns the
// collective direction and whether the traversal is complete (global
// frontier empty).
func (c *shardedRun) chooseRound(rank int, epoch uint64, vcq, ecq, unvisitedLocal int64, step int32) (Direction, bool, error) {
	err := c.round(rank, epoch, func() {
		c.vcq += vcq
		c.ecq += ecq
		c.unvisited += unvisitedLocal
	}, func() {
		if c.vcq == 0 {
			c.runDone = true
			return
		}
		info := StepInfo{
			Step:              int(step),
			FrontierVertices:  c.vcq,
			FrontierEdges:     c.ecq,
			UnvisitedVertices: c.unvisited,
			TotalVertices:     int64(c.g.NumVertices()),
			TotalEdges:        c.g.NumEdges(),
		}
		c.dir = c.policy.Choose(info)
		if c.o.live {
			c.stepStart = time.Now()
			if c.prevDir >= 0 && c.dir != c.prevDir {
				c.o.event(obs.Event{
					Kind: obs.KindSwitch, Step: step,
					Dir: obs.Direction(c.dir), Wall: c.stepStart,
				})
			}
			c.o.event(obs.Event{
				Kind: obs.KindCollective, Step: step, Dir: obs.Direction(c.dir),
				FrontierVertices: info.FrontierVertices,
				FrontierEdges:    info.FrontierEdges,
				Unvisited:        info.UnvisitedVertices,
				Workers:          int32(c.ranks),
				Wall:             c.stepStart,
			})
		}
		c.prevDir = c.dir
		c.found, c.scans = 0, 0
		c.frontierBytes, c.ghostBytes = 0, 0
		c.ghostSent, c.ghostApplied = 0, 0
	})
	if err != nil {
		return 0, false, err
	}
	// The leader wrote the decision under the lock before releasing the
	// round; re-acquire it for a race-clean read (two instructions, far
	// off the kernels' hot loops).
	c.mu.Lock()
	dir, runDone := c.dir, c.runDone
	c.mu.Unlock()
	return dir, runDone, nil
}

// endRound all-reduces the level outcome; the leader appends the
// per-step direction/scan/exchange logs to the shared result, adds the
// level's frontier to the visited and traversed-edge totals, and emits
// the level event, then clears the accumulators for the next level. A
// round aborted by a membership change never reaches the leader, so a
// replayed level is counted once.
func (c *shardedRun) endRound(rank int, epoch uint64, step int32, dir Direction, found, scans, frontierBytes, ghostSentBytes, ghostRecv, ghostApplied int64) error {
	return c.round(rank, epoch, func() {
		c.found += found
		c.scans += scans
		c.frontierBytes += frontierBytes
		c.ghostBytes += ghostSentBytes
		c.ghostSent += ghostRecv
		c.ghostApplied += ghostApplied
	}, func() {
		c.res.Directions = append(c.res.Directions, dir)
		c.res.StepScans = append(c.res.StepScans, c.scans)
		c.res.Exchanges = append(c.res.Exchanges, ExchangeStats{
			Step: int(step), Dir: dir,
			FrontierBytes: c.frontierBytes, GhostBytes: c.ghostBytes,
			GhostSent: c.ghostSent, GhostApplied: c.ghostApplied,
		})
		c.res.VisitedCount += c.vcq
		c.res.TraversedEdges += c.ecq
		if c.o.live {
			c.o.event(obs.Event{
				Kind: obs.KindLevel, Step: step, Dir: obs.Direction(dir),
				FrontierVertices: c.vcq,
				FrontierEdges:    c.ecq,
				Discovered:       c.found,
				Unvisited:        c.unvisited,
				Scans:            c.scans,
				Grains:           int64(c.ranks),
				Workers:          int32(c.ranks),
				Wall:             c.stepStart,
				WallDur:          time.Since(c.stepStart),
			})
		}
		c.vcq, c.ecq, c.unvisited = 0, 0, 0
	})
}

// observeExchange wraps one rank's per-level exchange (the barrier
// plus the apply phase in fn) in the paired exchange events. bytes is
// read at emission time so the closer reports what actually shipped.
func (c *shardedRun) observeExchange(rank int, step int32, dir Direction, bytes *int64, fn func() error) error {
	if !c.o.live || c.ranks == 1 {
		return fn()
	}
	start := time.Now()
	c.o.event(obs.Event{
		Kind: obs.KindExchangeStart, Step: step, Dir: obs.Direction(dir),
		Index: int32(rank), Workers: int32(c.ranks), Wall: start,
	})
	defer func() {
		c.o.event(obs.Event{
			Kind: obs.KindExchangeEnd, Step: step, Dir: obs.Direction(dir),
			Index: int32(rank), Bytes: *bytes,
			Wall: time.Now(), WallDur: time.Since(start),
		})
	}()
	return fn()
}
