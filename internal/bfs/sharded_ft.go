package bfs

import (
	"errors"
	"fmt"
	"time"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/fault"
	"crossbfs/internal/obs"
	"crossbfs/internal/part"
)

// This file is the sharded engine's fault-tolerance layer: rank fault
// injection at the exchange seam, per-level frontier checkpoints, a
// barrier watchdog, and checkpoint-replay recovery onto survivor
// ranks. It is armed only when the installed fault.Schedule carries
// rank-targeted events — the no-fault traversal never branches past a
// single `c.ft != nil` check. DESIGN.md §4e documents the protocol.
//
// The safety argument, in brief: every membership change happens while
// the dying rank is quiescent at a seam (injected crashes and retry
// exhaustion fence the rank at its own seam; the watchdog only fences
// ranks that parked themselves under the barrier mutex before
// sleeping). The park/fence/adopt operations are all mutex ops, so
// every kernel write of a dead rank happens-before the survivors'
// rollback and adoption — the race detector agrees (`make chaos`).

// errEpochChanged unwinds a survivor out of the level loop when the
// rank membership changed underneath it; the rank rolls back its
// partial level, restores the checkpointed frontier, and replays.
var errEpochChanged = errors.New("bfs: sharded membership changed")

// errFenced terminates a rank that has been declared dead (injected
// crash, exhausted exchange retries, or watchdog-fenced straggler).
var errFenced = errors.New("bfs: rank fenced")

// FTOptions tune the sharded engine's fault-tolerance machinery. The
// zero value of each field means "use the default".
type FTOptions struct {
	// MaxRetries bounds the exchange re-attempts per rank per level
	// before the rank declares itself failed (default 3).
	MaxRetries int
	// RetryBackoff is the first retry's backoff; it doubles per
	// attempt (default 200µs).
	RetryBackoff time.Duration
	// BackoffCap caps the exponential backoff (default 5ms).
	BackoffCap time.Duration
	// LagUnit converts a ranklag factor into wall time: a lagging rank
	// sleeps factor×LagUnit at its exchange seam (default 2ms).
	LagUnit time.Duration
	// StallTimeout is the barrier watchdog's per-collective deadline:
	// a round stalled this long gets its parked absentees fenced, and
	// a round stalled 4× this long with nobody to fence fails the
	// traversal with a typed *fault.Error instead of hanging
	// (default 250ms).
	StallTimeout time.Duration
	// WatchdogPoll is the watchdog's polling interval (default 5ms).
	WatchdogPoll time.Duration
}

func (o FTOptions) withDefaults() FTOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Microsecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 5 * time.Millisecond
	}
	if o.LagUnit <= 0 {
		o.LagUnit = 2 * time.Millisecond
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 250 * time.Millisecond
	}
	if o.WatchdogPoll <= 0 {
		o.WatchdogPoll = 5 * time.Millisecond
	}
	return o
}

// RecoveryStats summarizes the fault-tolerance work of one sharded
// traversal; Result.Recovery carries it back to the caller.
type RecoveryStats struct {
	// RanksLost counts ranks fenced during the traversal.
	RanksLost int
	// Recoveries counts membership changes the survivors recovered
	// from (each fence of a non-final rank is one recovery).
	Recoveries int
	// ExchangeRetries counts exchange attempts re-run after an
	// injected drop.
	ExchangeRetries int
	// CheckpointBytes totals the encoded per-level frontier deltas.
	CheckpointBytes int64
}

// ckptSlot is one segment's checkpoint for one level: the compressed
// frontier delta that, replayed, reconstructs the queue entering level
// Step on that segment. Slots are double-buffered per segment (see
// shardedFT.ckpt): writing level S+1 overwrites level S-1 and keeps
// level S — exactly the replay window recovery needs.
type ckptSlot struct {
	step  int32
	delta []byte
}

// shardedFT is the shared fault-tolerance state of one traversal.
// Every field is guarded by shardedRun.mu except sched (immutable
// during the run) and opts.
type shardedFT struct {
	sched *fault.Schedule
	opts  FTOptions

	live    int
	dead    []bool
	parked  []bool // rank is asleep at a seam (lag or retry backoff)
	present []bool // rank has arrived at the in-progress round
	// parkStep[r] is the level rank r was traversing when it parked;
	// the watchdog stamps fences with it.
	parkStep []int32
	// owner[seg] is the rank currently owning segment seg. Segments
	// are the original 1D partition ranges; ownership moves only when
	// a rank dies (part.Shrink).
	owner []int
	// epoch counts membership changes; every barrier call carries the
	// caller's epoch so stale participants are turned away.
	epoch uint64
	// ckpt[seg][parity] double-buffers each segment's per-level
	// frontier checkpoints (parity = step%2).
	ckpt [][2]ckptSlot

	// wdStop/wdDone bound the watchdog goroutine's lifetime. They
	// live here rather than as locals in RunObserved so the no-fault
	// path pays no escape-analysis allocation for them.
	wdStop chan struct{}
	wdDone chan struct{}

	stats RecoveryStats
}

func newShardedFT(sched *fault.Schedule, opts FTOptions, ranks int) *shardedFT {
	ft := &shardedFT{
		sched:    sched,
		opts:     opts.withDefaults(),
		live:     ranks,
		dead:     make([]bool, ranks),
		parked:   make([]bool, ranks),
		present:  make([]bool, ranks),
		parkStep: make([]int32, ranks),
		owner:    make([]int, ranks),
		ckpt:     make([][2]ckptSlot, ranks),
		wdStop:   make(chan struct{}),
		wdDone:   make(chan struct{}),
	}
	for seg := range ft.owner {
		ft.owner[seg] = seg
	}
	return ft
}

// rankView is one rank's private snapshot of the membership: refreshed
// only under the barrier mutex (at recovery), read freely by the
// kernels. Between refreshes the membership cannot change without the
// rank seeing errEpochChanged first, so stale reads are impossible.
type rankView struct {
	epoch uint64
	owned []int  // segments this rank owns, ascending
	live  []int  // live ranks, ascending
	mine  []bool // mine[seg]: segment is owned by this rank
}

// refresh snapshots the current membership for rank. Caller holds mu.
func (v *rankView) refresh(ft *shardedFT, rank int) {
	v.epoch = ft.epoch
	v.owned = v.owned[:0]
	v.live = v.live[:0]
	if v.mine == nil {
		v.mine = make([]bool, len(ft.owner))
	}
	for seg, r := range ft.owner {
		v.mine[seg] = r == rank
		if r == rank {
			v.owned = append(v.owned, seg)
		}
	}
	for r, d := range ft.dead {
		if !d {
			v.live = append(v.live, r)
		}
	}
}

// fenceLocked declares rank r dead at level step: it leaves the live
// set, its segments move to survivors, the epoch advances, and every
// waiter is woken so the round in progress aborts into recovery. When
// r was the last live rank the traversal fails with the typed
// *fault.Error the degradation ladder in internal/core escalates on.
// Caller holds mu.
func (c *shardedRun) fenceLocked(r int, step int32, kind fault.Kind, reason string) {
	ft := c.ft
	if ft.dead[r] || c.err != nil {
		return
	}
	ft.dead[r] = true
	ft.parked[r] = false
	ft.live--
	ft.stats.RanksLost++
	if c.o.live {
		c.o.event(obs.Event{
			Kind: obs.KindRankLost, Step: step, Dir: obs.DirNone,
			Index: int32(r), Workers: int32(ft.live),
			Detail: reason, Wall: time.Now(),
		})
	}
	if ft.live == 0 {
		c.err = &fault.Error{
			Kind: kind, Device: fmt.Sprintf("rank%d", r), Step: int(step),
			Reason: "no surviving ranks: " + reason,
		}
		c.cond.Broadcast()
		return
	}
	owner, err := part.Shrink(ft.owner, ft.dead)
	if err != nil {
		c.err = err // unreachable: live > 0 guarantees a survivor
		c.cond.Broadcast()
		return
	}
	ft.owner = owner
	ft.epoch++
	ft.stats.Recoveries++
	// Abort the round in progress: partial collective sums are stale
	// the moment membership changes; the replay's choose leader rebuilds
	// them from the survivors' fresh arrivals.
	c.arrived = 0
	for i := range ft.present {
		ft.present[i] = false
	}
	c.vcq, c.ecq, c.unvisited = 0, 0, 0
	c.cond.Broadcast()
}

// die fences the calling rank itself (injected crash or exhausted
// exchange retries).
func (c *shardedRun) die(rank int, step int32, kind fault.Kind, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fenceLocked(rank, step, kind, reason)
}

// watchdog converts a stalled collective into a detected failure
// instead of a hang. It polls the barrier state; when a round makes no
// progress past StallTimeout it fences the live absentees that are
// parked at a seam (the only ranks known quiescent, hence safe to
// fence), and if a stall persists 4× the deadline with nobody safely
// fenceable it fails the whole traversal with a typed *fault.Error.
func (c *shardedRun) watchdog(stop <-chan struct{}) {
	defer close(c.ft.wdDone)
	ticker := time.NewTicker(c.ft.opts.WatchdogPoll)
	defer ticker.Stop()
	var (
		lastGen, lastEpoch uint64
		lastArrived        = -1
		stallStart         time.Time
	)
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		ft := c.ft
		if c.err != nil || c.runDone {
			c.mu.Unlock()
			return
		}
		if c.gen != lastGen || ft.epoch != lastEpoch || c.arrived != lastArrived || c.arrived == 0 {
			lastGen, lastEpoch, lastArrived = c.gen, ft.epoch, c.arrived
			stallStart = time.Now()
			c.mu.Unlock()
			continue
		}
		stalled := time.Since(stallStart)
		if stalled < ft.opts.StallTimeout {
			c.mu.Unlock()
			continue
		}
		fenced := false
		for r := 0; r < c.ranks; r++ {
			if !ft.dead[r] && !ft.present[r] && ft.parked[r] {
				c.fenceLocked(r, ft.parkStep[r], fault.RankCrash,
					"watchdog: rank stalled past collective deadline")
				fenced = true
				if c.err != nil {
					break
				}
			}
		}
		if fenced {
			lastGen, lastEpoch, lastArrived = c.gen, ft.epoch, c.arrived
			stallStart = time.Now()
		} else if stalled > 4*ft.opts.StallTimeout {
			// Nobody parked, nobody arriving: an absent rank is stuck
			// somewhere the fencing argument cannot reach. Converting
			// the hang into a typed error keeps the contract that every
			// traversal terminates.
			c.err = &fault.Error{
				Kind: fault.RankCrash, Device: "collective", Step: int(c.ft.parkStepMax()),
				Reason: "barrier stalled with no recoverable rank",
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
}

// parkStepMax is a best-effort level stamp for watchdog failures.
// Caller holds mu.
func (ft *shardedFT) parkStepMax() int32 {
	var max int32
	for _, s := range ft.parkStep {
		if s > max {
			max = s
		}
	}
	return max
}

// parkAndSleep marks the rank quiescent at its seam (making it safe
// for the watchdog to fence) and sleeps d. On wake it reports whether
// the rank is still alive; a fence that landed mid-sleep surfaces as
// errFenced here, and a membership change surfaces at the next
// barrier via the caller's stale epoch.
func (c *shardedRun) parkAndSleep(rank int, step int32, d time.Duration) error {
	ft := c.ft
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return c.err
	}
	if ft.dead[rank] {
		c.mu.Unlock()
		return errFenced
	}
	ft.parked[rank] = true
	ft.parkStep[rank] = step
	c.mu.Unlock()

	time.Sleep(d)

	c.mu.Lock()
	ft.parked[rank] = false
	err := c.err
	dead := ft.dead[rank]
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if dead {
		return errFenced
	}
	return nil
}

// injectSeam runs the rank's fault schedule at the pre-exchange seam
// of each level: injected crashes fence the rank here, lag parks it,
// and exchange drops burn capped-backoff retries that fence the rank
// when exhausted. Every sleep goes through parkAndSleep so the
// watchdog only ever fences quiescent ranks.
func (c *shardedRun) injectSeam(rank int, step int32) error {
	ft := c.ft
	sched := ft.sched
	if _, crashed := sched.RankCrashedBy(rank, int(step)); crashed {
		c.die(rank, step, fault.RankCrash, "injected rank crash")
		return errFenced
	}
	if f := sched.RankLagAt(rank, int(step)); f > 1 {
		d := time.Duration(f * float64(ft.opts.LagUnit))
		if err := c.parkAndSleep(rank, step, d); err != nil {
			return err
		}
	}
	backoff := ft.opts.RetryBackoff
	for attempt := 0; sched.ExchangeDrops(rank, int(step), attempt); attempt++ {
		if attempt >= ft.opts.MaxRetries {
			c.die(rank, step, fault.ExchangeDrop, "exchange retries exhausted")
			return errFenced
		}
		c.mu.Lock()
		ft.stats.ExchangeRetries++
		c.mu.Unlock()
		if err := c.parkAndSleep(rank, step, backoff); err != nil {
			return err
		}
		backoff *= 2
		if backoff > ft.opts.BackoffCap {
			backoff = ft.opts.BackoffCap
		}
	}
	return nil
}

// writeCheckpoint encodes the frontier entering level step (the bits
// of next) as one compressed word delta per owned segment, stamped
// into the segment's parity slot. Written after the exchange applied
// and before the level commits, so at any instant the slots hold the
// current level and the next — the exact window a replay can need.
func (c *shardedRun) writeCheckpoint(rank int, view *rankView, rs *rankState, next []int32, step int32) {
	ft := c.ft
	layout := &c.p.Layout
	rs.ck.Resize(c.g.NumVertices()) // clear + fit
	for _, v := range next {
		rs.ck.Set(int(v))
	}
	var total int64
	for _, seg := range view.owned {
		loW, hiW := layout.WordRange(seg)
		slot := &ft.ckpt[seg][step%2]
		slot.delta = rs.ck.AppendDelta(slot.delta[:0], loW, hiW)
		slot.step = step
		total += int64(len(slot.delta))
	}
	c.mu.Lock()
	ft.stats.CheckpointBytes += total
	c.mu.Unlock()
	if c.o.live {
		c.o.event(obs.Event{
			Kind: obs.KindCheckpoint, Step: step, Dir: obs.DirNone,
			Index: int32(rank), Grains: int64(len(view.owned)),
			Bytes: total, Wall: time.Now(),
		})
	}
}

// recoverFT handles a barrier error in the FT level loop. For
// errEpochChanged it performs one survivor's recovery — refresh the
// membership view (possibly adopting a dead rank's segments), roll
// back this level's partial writes in every owned segment, restore the
// level's entry frontier from the checkpoints, recompute the local
// unvisited count — and returns true so the caller replays the level.
// Any other error (fenced, failed, canceled) returns false and the
// rank exits.
func (c *shardedRun) recoverFT(err error, rank int, view *rankView, rs *rankState, queue *[]int32, unvisitedLocal *int64, step int32) bool {
	if err != errEpochChanged {
		return false
	}
	ft := c.ft
	c.mu.Lock()
	if c.err != nil || ft.dead[rank] {
		c.mu.Unlock()
		return false
	}
	view.refresh(ft, rank)
	c.mu.Unlock()

	start := time.Now()
	restored := int64(-1)
	if c.o.live {
		c.o.event(obs.Event{
			Kind: obs.KindRecoverStart, Step: step, Dir: obs.DirNone,
			Index: int32(rank), Wall: start,
		})
		defer func() {
			c.o.event(obs.Event{
				Kind: obs.KindRecoverEnd, Step: step, Dir: obs.DirNone,
				Index: int32(rank), Scans: restored,
				Wall: time.Now(), WallDur: time.Since(start),
			})
		}()
	}

	// Roll back this level's partial writes: any vertex discovered at
	// the aborted level loses its parent again, in every segment this
	// rank now owns (its own and any just adopted — segment ownership
	// is disjoint across live ranks, so coverage is exact and
	// write-exclusive).
	parent, level := c.res.Parent, c.res.Level
	layout := &c.p.Layout
	for _, seg := range view.owned {
		lo, hi := layout.Range(seg)
		for v := lo; v < hi; v++ {
			if level[v] == step {
				parent[v] = NotVisited //lint:shared-ok owned segment: ownership is exclusive per epoch and the epoch fence ordered the dead rank's writes before this
				level[v] = NotVisited  //lint:shared-ok owned segment: ownership is exclusive per epoch and the epoch fence ordered the dead rank's writes before this
				c.visited.Clear(int(v))
			}
		}
	}

	// Restore the level's entry frontier from the checkpoints. A dead
	// rank's last slot write happened before its final barrier
	// operation, which happened before the fence — so the adopter's
	// read here is ordered.
	q := (*queue)[:0]
	rs.ck.Resize(c.g.NumVertices())
	for _, seg := range view.owned {
		slot := &ft.ckpt[seg][step%2]
		if slot.step != step {
			c.fail(&fault.Error{
				Kind: fault.RankCrash, Device: fmt.Sprintf("segment%d", seg), Step: int(step),
				Reason: fmt.Sprintf("checkpoint for replay level missing (have level %d)", slot.step),
			})
			return false
		}
		loW, hiW := layout.WordRange(seg)
		if _, err := rs.ck.ApplyDelta(slot.delta, loW); err != nil {
			c.fail(fmt.Errorf("bfs: sharded rank %d restoring segment %d: %w", rank, seg, err))
			return false
		}
		q = rs.ck.AppendSetWords(q, loW, hiW)
	}
	*queue = q
	restored = int64(len(q))

	// Recompute the local unvisited count over the (possibly grown)
	// owned set; the rollback already removed this level's discoveries
	// from the visited bitmap.
	var uv int64
	for _, seg := range view.owned {
		lo, hi := layout.Range(seg)
		loW, hiW := layout.WordRange(seg)
		uv += int64(hi-lo) - int64(c.visited.CountWords(loW, hiW))
	}
	*unvisitedLocal = uv
	return true
}

// rankLoopFT is rankLoop's fault-tolerant twin: same level structure,
// but with multi-segment kernels (a rank may own several segments
// after adoption), the injection seam before each exchange, per-level
// checkpoints, and errEpochChanged recovery.
func (c *shardedRun) rankLoopFT(rank int, rs *rankState) {
	layout := &c.p.Layout
	n := c.g.NumVertices()
	if rs.ck == nil {
		rs.ck = bitmap.New(n)
	}
	if len(rs.segDeltas) < c.ranks {
		grown := make([][]byte, c.ranks)
		copy(grown, rs.segDeltas)
		rs.segDeltas = grown
	}

	view := &rankView{}
	c.mu.Lock()
	view.refresh(c.ft, rank)
	c.mu.Unlock()

	queue := rs.queue[:0]
	next := rs.next[:0]
	defer func() { rs.queue, rs.next = queue, next }()

	sh0 := c.p.Shards[rank]
	unvisitedLocal := int64(sh0.Hi - sh0.Lo)
	if sh0.Owns(c.source) {
		queue = append(queue, c.source)
		unvisitedLocal--
	}
	step := int32(1)
	// The frontier entering level 1 is checkpointed before any level
	// runs, so even a first-level death is replayable.
	c.writeCheckpoint(rank, view, rs, queue, step)

	for {
		if err := c.ctx.Err(); err != nil {
			c.fail(err)
			return
		}
		var ecq int64
		for _, u := range queue {
			sh := c.p.Shards[layout.Owner(u)]
			ecq += sh.Sub.Degree(u - sh.Lo)
		}
		dir, runDone, err := c.chooseRound(rank, view.epoch, int64(len(queue)), ecq, unvisitedLocal, step)
		if err != nil {
			if c.recoverFT(err, rank, view, rs, &queue, &unvisitedLocal, step) {
				continue
			}
			return
		}
		if runDone {
			return
		}

		next = next[:0]
		var found, scans int64
		var frontierBytes, ghostSentBytes int64
		var ghostRecv, ghostApplied int64
		parent, level := c.res.Parent, c.res.Level

		switch dir {
		case TopDown:
			out := rs.out[:c.ranks]
			for d := range out {
				out[d] = out[d][:0]
			}
			for i, u := range queue {
				if i%ctxStride == ctxStride-1 {
					if err := c.ctx.Err(); err != nil {
						c.fail(err)
						return
					}
				}
				useg := layout.Owner(u)
				sh := c.p.Shards[useg]
				for _, v := range sh.Sub.Neighbors(u - sh.Lo) {
					dseg := useg
					if v < sh.Lo || v >= sh.Hi {
						dseg = layout.Owner(v)
					}
					if view.mine[dseg] {
						if !c.visited.Get(int(v)) {
							c.visited.Set(int(v))
							parent[v] = u   //lint:shared-ok owned segment: v is in a segment this rank owns this epoch and ownership is exclusive
							level[v] = step //lint:shared-ok owned segment: v is in a segment this rank owns this epoch and ownership is exclusive
							next = append(next, v)
						}
					} else {
						out[dseg] = append(out[dseg], v, u)
					}
				}
			}
			c.outboxes[rank] = out
			for d, pairs := range out {
				if !view.mine[d] {
					ghostSentBytes += int64(len(pairs)) * 4
				}
			}
			if err := c.injectSeam(rank, step); err != nil {
				if c.recoverFT(err, rank, view, rs, &queue, &unvisitedLocal, step) {
					continue
				}
				return
			}
			applyGhosts := func() error {
				if err := c.round(rank, view.epoch, nil, nil); err != nil {
					return err
				}
				// The round completing proves the membership did not
				// change inside it, so the snapshot's live set is exact
				// here. The own-rank outbox rows for owned segments are
				// empty by construction, so s ranges over remote sources.
				for _, s := range view.live {
					if s == rank {
						continue
					}
					for _, seg := range view.owned {
						in := c.outboxes[s][seg]
						for i := 0; i+1 < len(in); i += 2 {
							v, u := in[i], in[i+1]
							ghostRecv++
							if !c.visited.Get(int(v)) {
								c.visited.Set(int(v))
								parent[v] = u   //lint:shared-ok owned segment: the outbox routed v to its owning segment and only the current owner applies it
								level[v] = step //lint:shared-ok owned segment: the outbox routed v to its owning segment and only the current owner applies it
								next = append(next, v)
								ghostApplied++
							}
						}
					}
				}
				return nil
			}
			if err := c.observeExchange(rank, step, dir, &ghostSentBytes, applyGhosts); err != nil {
				if c.recoverFT(err, rank, view, rs, &queue, &unvisitedLocal, step) {
					continue
				}
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
			rs.front.Resize(n) // clear + fit
			for _, v := range queue {
				rs.front.Set(int(v))
			}
			for _, seg := range view.owned {
				loW, hiW := layout.WordRange(seg)
				delta := rs.front.AppendDelta(rs.segDeltas[seg][:0], loW, hiW)
				rs.segDeltas[seg] = delta
				c.deltas[seg] = delta
				frontierBytes += int64(len(delta))
			}
			if err := c.injectSeam(rank, step); err != nil {
				if c.recoverFT(err, rank, view, rs, &queue, &unvisitedLocal, step) {
					continue
				}
				return
			}
			gatherFrontier := func() error {
				if err := c.round(rank, view.epoch, nil, nil); err != nil {
					return err
				}
				for seg := 0; seg < c.ranks; seg++ {
					if view.mine[seg] {
						continue
					}
					segLoW, _ := layout.WordRange(seg)
					if _, err := rs.front.ApplyDelta(c.deltas[seg], segLoW); err != nil {
						err = fmt.Errorf("bfs: sharded rank %d: %w", rank, err)
						c.fail(err)
						return err
					}
				}
				return nil
			}
			if err := c.observeExchange(rank, step, dir, &frontierBytes, gatherFrontier); err != nil {
				if c.recoverFT(err, rank, view, rs, &queue, &unvisitedLocal, step) {
					continue
				}
				return
			}
			for _, seg := range view.owned {
				sh := c.p.Shards[seg]
				lo, hi := int(sh.Lo), int(sh.Hi)
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
					for _, u := range sh.Sub.Neighbors(int32(v - lo)) {
						scans++
						if rs.front.Get(int(u)) {
							c.visited.Set(v)
							parent[v] = u   //lint:shared-ok owned segment: v iterates segments this rank owns this epoch only
							level[v] = step //lint:shared-ok owned segment: v iterates segments this rank owns this epoch only
							next = append(next, int32(v))
							break
						}
					}
				}
			}
			found = int64(len(next))

		default:
			c.fail(fmt.Errorf("bfs: policy returned unknown direction %d", dir))
			return
		}

		// Checkpoint the next level's entry frontier before committing
		// this one: after endRound succeeds, any rank may need to
		// replay level step+1, and this is the delta it will read.
		c.writeCheckpoint(rank, view, rs, next, step+1)

		if err := c.endRound(rank, view.epoch, step, dir, found, scans, frontierBytes, ghostSentBytes, ghostRecv, ghostApplied); err != nil {
			if c.recoverFT(err, rank, view, rs, &queue, &unvisitedLocal, step) {
				continue
			}
			return
		}
		unvisitedLocal -= found
		queue, next = next, queue
		step++
	}
}
