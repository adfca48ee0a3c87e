package bfs

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/fault"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
	"crossbfs/internal/part"
)

// Sharded is the partitioned direction-optimizing engine: N goroutine
// "ranks" each own a contiguous, 64-aligned vertex range of a 1D
// partition (internal/part) and run the single-node level kernels over
// their own rows of the graph, exchanging frontier state once per
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
//     delta (bitmap.AppendDelta), every rank ORs the others' deltas
//     into a private full-graph replica, and then runs bottomUpRange
//     (hub probe, then CSR-order scan) over its owned words.
//   - The direction is a collective decision: each level the ranks
//     all-reduce |V|cq, |E|cq and the unvisited count, and the last
//     rank to arrive runs the (single, shared) switching policy on the
//     global sums — so every rank changes direction together, and the
//     switch lands exactly where the single-box engine's would
//     (TestShardedDirectionsMatchHybrid pins this, together with the
//     per-step scan counts).
//
// One loop (runRank) runs every rank, with or without a fault
// schedule: without one, a rank's membership view is fixed — it owns
// its own range, every rank is live, the epoch stays 0 — and the
// injection seam, checkpoints and recovery sit behind c.ft != nil.
//
// Sharing discipline: the result's parent/level arrays and the visited
// and next bitmaps are shared across ranks, but every write lands in
// a range the writer owns, and the 64-aligned partition boundaries
// mean not even a bitmap word straddles two owners — so the kernels
// use plain stores, no atomics. Cross-rank data moves only through the
// outbox/delta slots, which are written before and read after a
// barrier (the barrier's mutex + broadcast is the happens-before
// edge). `make race` runs this engine through the sharded tests.
type Sharded struct {
	ranks int
	// policy decides for all ranks: the collective's leader calls
	// Choose once per level, so the direction sequence matches what
	// the same policy picks on one box.
	policy Policy
	name   string

	// faults is the rank-fault injection schedule; when it carries
	// rank-targeted events (fault.Schedule.HasRankFaults) the engine
	// arms its fault-tolerance machinery: per-level frontier
	// checkpoints, the barrier watchdog, and survivor recovery. See
	// sharded_ft.go and DESIGN.md §4e.
	faults *fault.Schedule
	ftOpts ftOptions

	// Partition cache: RunMany-style workloads traverse one graph from
	// many roots, and the partition depends only on (graph, ranks).
	mu      sync.Mutex
	cachedG *graph.CSR
	cachedL part.Layout
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

// SetFaults installs a fault-injection schedule. Schedules carrying
// rank-targeted events (rankcrash/ranklag/exchdrop) arm the engine's
// checkpoint-and-recover machinery; device-level kinds are ignored
// here (they belong to the simulator ladder in internal/core). Like
// the Schedule itself, an engine with faults installed must not run
// concurrent traversals.
func (e *Sharded) SetFaults(s *fault.Schedule) { e.faults = s }

// Name implements Engine.
func (e *Sharded) Name() string { return e.name }

// Run implements Engine.
func (e *Sharded) Run(g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunObserved(context.Background(), g, source, ws, nil)
}

// partition returns the cached layout of g, building it on first use
// (or when the engine moves to a different graph).
func (e *Sharded) partition(g *graph.CSR) (part.Layout, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cachedG == g {
		return e.cachedL, nil
	}
	l, err := part.Partition(g, e.ranks)
	if err != nil {
		return part.Layout{}, err
	}
	e.cachedG, e.cachedL = g, l
	return l, nil
}

// RunObserved implements Engine. It carries the same fault-tolerance
// contract as the policy runner Run: ctx.Err() verbatim on cancellation
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
	if mn, ok := e.policy.(MN); ok {
		if err := mn.Validate(); err != nil {
			return nil, err
		}
	}
	layout, err := e.partition(g)
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
		g: g, layout: layout, res: r, visited: ws.visited, next: ws.next,
		policy: e.policy, ctx: ctx, o: &o, ranks: e.ranks, source: source,
		outboxes: make([][][]int32, e.ranks),
		deltas:   make([][]byte, e.ranks),
		prevDir:  Direction(-1),
	}
	c.cond = sync.NewCond(&c.mu)
	if e.faults.HasRankFaults() {
		e.faults.Reset()
		c.ft = newShardedFT(e.faults, e.ftOpts, e.ranks)
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
		go func(rank int) {
			defer wg.Done()
			rs := getRankState(c.ranks)
			defer rankStatePool.Put(rs)
			defer func() {
				if v := recover(); v != nil {
					var perr error
					recoverToError(v, &perr)
					c.fail(perr)
				}
			}()
			c.runRank(rank, rs)
		}(rank)
	}
	// Every rank goroutine has returned its pooled state and exited
	// before Run returns — on success, cancellation, and panic alike —
	// so the workspace and the pooled rank states are quiescent
	// whenever the caller sees them again.
	wg.Wait()
	if c.ft != nil {
		close(c.ft.wdStop)
		<-c.ft.wdDone
		r.Recovery = c.ft.stats
	}
	if c.err != nil {
		return nil, c.err
	}
	ws.retain(r, ws.queue, ws.spare)
	done = r
	return r, nil
}

// rankState is the pooled per-rank working set: the rank's frontier
// entering the level (queue, with its degree sum ecq and the rank's
// unvisited count) and the queue the level builds (next), the
// per-segment outboxes and delta buffers, the rank's membership view,
// and front: the private full-graph frontier replica of bottom-up
// levels, which between levels is also the scratch bitmap that
// checkpoints are encoded from and restored into.
type rankState struct {
	queue, next    []int32
	ecq, unvisited int64
	out            [][]int32
	segDeltas      [][]byte
	view           rankView
	front          *bitmap.Bitmap
}

// rankStatePool recycles rank states across traversals (and across
// engines — the state carries no graph identity; everything is resized
// or truncated before reuse).
var rankStatePool = sync.Pool{New: func() any { return &rankState{front: bitmap.New(0)} }}

// getRankState returns a pooled rank state with per-segment slots for
// ranks segments. Every user of front resizes it to the graph first.
func getRankState(ranks int) *rankState {
	rs := rankStatePool.Get().(*rankState)
	if len(rs.out) < ranks {
		rs.out = append(rs.out, make([][]int32, ranks-len(rs.out))...)
		rs.segDeltas = append(rs.segDeltas, make([][]byte, ranks-len(rs.segDeltas))...)
	}
	return rs
}

// shardedRun is the shared state of one sharded traversal: the global
// result arrays, the cross-rank exchange slots, and the collective.
type shardedRun struct {
	g       *graph.CSR
	layout  part.Layout
	res     *Result
	visited *bitmap.Bitmap
	// next receives each bottom-up level's discoveries; every rank
	// writes only the words of the segments it owns.
	next   *bitmap.Bitmap
	policy Policy
	ctx    context.Context
	o      *tobs
	ranks  int
	source int32

	// Exchange slots. A rank writes only its own outbox row and the
	// delta slots of the segments it owns before the exchange barrier,
	// and reads the others only after it.
	outboxes [][][]int32 // [src rank][dst segment] flat (v, u) claim pairs (top-down)
	deltas   [][]byte    // [segment] owned-range frontier word delta (bottom-up)

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
	err     error

	// ft is the fault-tolerance state, nil unless the installed
	// schedule carries rank faults. Guarded by mu. See sharded_ft.go.
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
	sum                 levelTally
}

// levelTally is one rank's outcome of one level: the vertices it
// discovered and their degree sum (its next |E|cq), the entries its
// bottom-up kernel tested, and its exchange volume — delta bytes
// published, claim bytes scattered, claims received and applied as
// owner. endRound sums the live ranks' tallies into the level's
// records.
type levelTally struct {
	found, degrees, scans     int64
	frontierBytes, ghostBytes int64
	ghostSent, ghostApplied   int64
}

func (t *levelTally) add(o levelTally) {
	t.found += o.found
	t.degrees += o.degrees
	t.scans += o.scans
	t.frontierBytes += o.frontierBytes
	t.ghostBytes += o.ghostBytes
	t.ghostSent += o.ghostSent
	t.ghostApplied += o.ghostApplied
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

// runRank is one rank's whole traversal, with or without a fault
// schedule. Without one the rank's view is fixed (it owns its own
// segment, every rank is live, the epoch is 0) and every c.ft check
// below is false. Any error has been published via fail (or observed
// from a round) by the time it returns.
func (c *shardedRun) runRank(rank int, rs *rankState) {
	c.mu.Lock()
	rs.view.refresh(c.ft, rank, c.ranks)
	c.mu.Unlock()
	lo, hi := c.layout.Range(rank)
	rs.queue, rs.ecq, rs.unvisited = rs.queue[:0], 0, int64(hi-lo)
	if c.source >= lo && c.source < hi {
		rs.queue = append(rs.queue, c.source)
		rs.ecq = c.g.Degree(c.source)
		rs.unvisited--
	}
	step := int32(1)
	if c.ft != nil {
		// The frontier entering level 1 is checkpointed before any level
		// runs, so even a first-level death is replayable.
		c.writeCheckpoint(rank, rs, rs.queue, step)
	}

	for {
		if err := c.ctx.Err(); err != nil {
			c.fail(err)
			return
		}
		dir, runDone, err := c.chooseRound(rank, rs.view.epoch, int64(len(rs.queue)), rs.ecq, rs.unvisited, step)
		if err == nil && runDone {
			return
		}
		var t levelTally
		if err == nil {
			switch dir {
			case TopDown:
				t, err = c.topDownRank(rank, rs, step)
			case BottomUp:
				t, err = c.bottomUpRank(rank, rs, step)
			default:
				err = fmt.Errorf("bfs: policy returned unknown direction %d", dir)
				c.fail(err)
			}
		}
		if err == nil && c.ft != nil {
			// Checkpoint the next level's entry frontier before committing
			// this one: after endRound succeeds, any rank may need to
			// replay level step+1, and this is the delta it will read.
			c.writeCheckpoint(rank, rs, rs.next, step+1)
		}
		if err == nil {
			err = c.endRound(rank, rs.view.epoch, step, dir, t)
		}
		if err != nil {
			if c.recoverLevel(err, rank, rs, step) {
				continue
			}
			return
		}
		rs.queue, rs.next = rs.next, rs.queue
		rs.ecq = t.degrees
		rs.unvisited -= t.found
		step++
	}
}

// topDownRank runs the rank's share of a top-down level. It expands
// its queue over g's rows: a target in a segment the rank owns is
// claimed in place (the rank's own range is tested first, so only a
// remote target pays for Layout.Owner), and any other target goes to
// its segment's outbox as a (v, u) pair. After the exchange barrier it
// applies the pairs addressed to its segments. The discoveries land in
// rs.next.
func (c *shardedRun) topDownRank(rank int, rs *rankState, step int32) (levelTally, error) {
	var t levelTally
	g, visited, view := c.g, c.visited, &rs.view
	parent, level := c.res.Parent, c.res.Level
	lo, hi := c.layout.Range(rank)
	out := rs.out[:c.ranks]
	for d := range out {
		out[d] = out[d][:0]
	}
	next := rs.next[:0]
	var degrees int64
	for i, u := range rs.queue {
		if i%ctxStride == ctxStride-1 {
			if err := c.ctx.Err(); err != nil {
				c.fail(err)
				return t, err
			}
		}
		for _, v := range g.Neighbors(u) {
			if v < lo || v >= hi {
				if seg := c.layout.Owner(v); !view.mine[seg] {
					out[seg] = append(out[seg], v, u)
					continue
				}
			}
			if !visited.Get(int(v)) {
				visited.Set(int(v))
				parent[v] = u   //lint:shared-ok owned segment: v is in a segment this rank owns this epoch and ownership is exclusive
				level[v] = step //lint:shared-ok owned segment: v is in a segment this rank owns this epoch and ownership is exclusive
				next = append(next, v)
				degrees += g.Degree(v)
			}
		}
	}
	rs.next, t.degrees = next, degrees
	c.outboxes[rank] = out
	for _, pairs := range out {
		t.ghostBytes += int64(len(pairs)) * 4
	}
	if c.ft != nil {
		if err := c.injectSeam(rank, step); err != nil {
			return t, err
		}
	}
	// Exchange: barrier so every outbox is complete, then apply the
	// claims addressed to this rank's segments.
	applyGhosts := func() error {
		if err := c.round(rank, view.epoch, nil, nil); err != nil {
			return err
		}
		// The round completing proves the membership did not change
		// inside it, so the view's live set is exact here. A rank's
		// outbox rows for the segments it owns are empty by
		// construction, so s ranges over remote sources.
		for _, s := range view.live {
			if s == rank {
				continue
			}
			for _, seg := range view.owned {
				in := c.outboxes[s][seg]
				for i := 0; i+1 < len(in); i += 2 {
					v, u := in[i], in[i+1]
					t.ghostSent++
					if !visited.Get(int(v)) {
						visited.Set(int(v))
						parent[v] = u   //lint:shared-ok owned segment: the outbox routed v to its owning segment and only the current owner applies it
						level[v] = step //lint:shared-ok owned segment: the outbox routed v to its owning segment and only the current owner applies it
						rs.next = append(rs.next, v)
						t.degrees += g.Degree(v)
						t.ghostApplied++
					}
				}
			}
		}
		return nil
	}
	if err := c.observeExchange(rank, step, TopDown, &t.ghostBytes, applyGhosts); err != nil {
		return t, err
	}
	if c.o.live && c.ranks > 1 {
		c.o.event(obs.Event{
			Kind: obs.KindGhostUpdate, Step: step, Dir: obs.DirNone,
			Index: int32(rank), Scans: t.ghostSent, Discovered: t.ghostApplied,
			Bytes: t.ghostSent * 8, Wall: time.Now(),
		})
	}
	t.found = int64(len(rs.next))
	return t, nil
}

// bottomUpRank runs the rank's share of a bottom-up level. It
// publishes its owned slice of the frontier as one compressed word
// delta per owned segment, merges the other segments' deltas into its
// private replica after the exchange barrier, and runs bottomUpRange
// over each owned segment against the replica. A non-empty segment
// starts on a word boundary and ends on one or at |V|, as the kernel
// requires, and the kernel writes only the segment's words of c.next.
// The rank then ORs those words into visited and reads the next queue
// back from them.
func (c *shardedRun) bottomUpRank(rank int, rs *rankState, step int32) (levelTally, error) {
	var t levelTally
	view := &rs.view
	rs.front.Resize(c.g.NumVertices()) // clear + fit
	for _, v := range rs.queue {
		rs.front.Set(int(v))
	}
	if c.ranks > 1 {
		for _, seg := range view.owned {
			loW, hiW := c.layout.WordRange(seg)
			delta := rs.front.AppendDelta(rs.segDeltas[seg][:0], loW, hiW)
			rs.segDeltas[seg] = delta
			c.deltas[seg] = delta
			t.frontierBytes += int64(len(delta))
		}
	}
	if c.ft != nil {
		if err := c.injectSeam(rank, step); err != nil {
			return t, err
		}
	}
	gatherFrontier := func() error {
		if err := c.round(rank, view.epoch, nil, nil); err != nil {
			return err
		}
		for seg := 0; seg < c.ranks; seg++ {
			if view.mine[seg] {
				continue
			}
			segLoW, _ := c.layout.WordRange(seg)
			if _, err := rs.front.ApplyDelta(c.deltas[seg], segLoW); err != nil {
				err = fmt.Errorf("bfs: sharded rank %d: %w", rank, err)
				c.fail(err)
				return err
			}
		}
		return nil
	}
	if err := c.observeExchange(rank, step, BottomUp, &t.frontierBytes, gatherFrontier); err != nil {
		return t, err
	}

	next := rs.next[:0]
	words := c.next.Words()
	for _, seg := range view.owned {
		lo, hi := c.layout.Range(seg)
		for from := int(lo); from < int(hi); from += ctxStride {
			if err := c.ctx.Err(); err != nil {
				c.fail(err)
				return t, err
			}
			found, scans, degrees := bottomUpRange(c.g, c.res, c.visited, rs.front, c.next, step, from, min(from+ctxStride, int(hi)))
			t.found += found
			t.scans += scans
			t.degrees += degrees
		}
		loW, hiW := c.layout.WordRange(seg)
		for wi := loW; wi < hiW; wi++ {
			c.visited.OrWord(wi, words[wi])
		}
		next = c.next.AppendSetWords(next, loW, hiW)
	}
	rs.next = next
	return t, nil
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
		c.sum = levelTally{}
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
func (c *shardedRun) endRound(rank int, epoch uint64, step int32, dir Direction, t levelTally) error {
	return c.round(rank, epoch, func() {
		c.sum.add(t)
	}, func() {
		c.res.Directions = append(c.res.Directions, dir)
		c.res.StepScans = append(c.res.StepScans, c.sum.scans)
		c.res.Exchanges = append(c.res.Exchanges, ExchangeStats{
			Step: int(step), Dir: dir,
			FrontierBytes: c.sum.frontierBytes, GhostBytes: c.sum.ghostBytes,
			GhostSent: c.sum.ghostSent, GhostApplied: c.sum.ghostApplied,
		})
		c.res.VisitedCount += c.vcq
		c.res.TraversedEdges += c.ecq
		if c.o.live {
			c.o.event(obs.Event{
				Kind: obs.KindLevel, Step: step, Dir: obs.Direction(dir),
				FrontierVertices: c.vcq,
				FrontierEdges:    c.ecq,
				Discovered:       c.sum.found,
				Unvisited:        c.unvisited,
				Scans:            c.sum.scans,
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
