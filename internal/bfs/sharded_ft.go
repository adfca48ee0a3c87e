package bfs

import (
	"errors"
	"fmt"
	"time"

	"crossbfs/internal/fault"
	"crossbfs/internal/obs"
	"crossbfs/internal/part"
)

// This file is the sharded engine's fault-tolerance layer: rank fault
// injection at the exchange seam, per-level frontier checkpoints, a
// barrier watchdog, and checkpoint-replay recovery onto survivor
// ranks. It is armed only when the installed fault.Schedule carries
// rank-targeted events. The one rank loop (runRank) calls into it
// behind `c.ft != nil` checks: the seam before each exchange, the
// checkpoint before each level commits, and recovery on a membership
// change. DESIGN.md §4e documents the protocol.
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

// ftOptions time the sharded engine's fault-tolerance machinery; a
// zero field means "use the default". The exchange retry policy is
// fault.MaxRetries, fault.RetryBackoff and fault.BackoffCap.
type ftOptions struct {
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

func (o ftOptions) withDefaults() ftOptions {
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
	opts  ftOptions

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

func newShardedFT(sched *fault.Schedule, opts ftOptions, ranks int) *shardedFT {
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
// Without a fault schedule the view is fixed: the rank owns its own
// segment, every rank is live, and the epoch is 0.
type rankView struct {
	epoch uint64
	owned []int  // segments this rank owns, ascending
	live  []int  // live ranks, ascending
	mine  []bool // mine[seg]: segment is owned by this rank
}

// refresh snapshots the current membership for rank; ft is nil
// without a fault schedule. Segments are the original ranks' ranges,
// so one index walks both. The slices are reused, so a pooled view
// allocates nothing. Caller holds mu.
func (v *rankView) refresh(ft *shardedFT, rank, ranks int) {
	v.epoch, v.owned, v.live = 0, v.owned[:0], v.live[:0]
	v.mine = append(v.mine[:0], make([]bool, ranks)...)
	for r := range v.mine {
		owner, live := r, true
		if ft != nil {
			owner, live = ft.owner[r], !ft.dead[r]
		}
		if owner == rank {
			v.mine[r] = true
			v.owned = append(v.owned, r)
		}
		if live {
			v.live = append(v.live, r)
		}
	}
	if ft != nil {
		v.epoch = ft.epoch
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
	backoff := fault.RetryBackoff
	for attempt := 0; sched.ExchangeDrops(rank, int(step), attempt); attempt++ {
		if attempt >= fault.MaxRetries {
			c.die(rank, step, fault.ExchangeDrop, "exchange retries exhausted")
			return errFenced
		}
		c.mu.Lock()
		ft.stats.ExchangeRetries++
		c.mu.Unlock()
		if err := c.parkAndSleep(rank, step, backoff); err != nil {
			return err
		}
		backoff = min(2*backoff, fault.BackoffCap)
	}
	return nil
}

// writeCheckpoint encodes the frontier entering level step (the bits
// of next) as one compressed word delta per owned segment, stamped
// into the segment's parity slot. Written after the exchange applied
// and before the level commits, so at any instant the slots hold the
// current level and the next — the exact window a replay can need.
func (c *shardedRun) writeCheckpoint(rank int, rs *rankState, next []int32, step int32) {
	ft, view := c.ft, &rs.view
	rs.front.Resize(c.g.NumVertices()) // clear + fit
	for _, v := range next {
		rs.front.Set(int(v))
	}
	var total int64
	for _, seg := range view.owned {
		loW, hiW := c.layout.WordRange(seg)
		slot := &ft.ckpt[seg][step%2]
		slot.delta = rs.front.AppendDelta(slot.delta[:0], loW, hiW)
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

// recoverLevel handles a barrier error in the rank loop. For
// errEpochChanged it performs one survivor's recovery — refresh the
// membership view (possibly adopting a dead rank's segments), roll
// back this level's partial writes in every owned segment, restore the
// level's entry frontier from the checkpoints, recount its |E|cq and
// the local unvisited count — and returns true so the caller replays
// the level. Any other error (fenced, failed, canceled) returns false
// and the rank exits; without a fault schedule that is every error.
func (c *shardedRun) recoverLevel(err error, rank int, rs *rankState, step int32) bool {
	if err != errEpochChanged {
		return false
	}
	ft, view := c.ft, &rs.view
	c.mu.Lock()
	if c.err != nil || ft.dead[rank] {
		c.mu.Unlock()
		return false
	}
	view.refresh(ft, rank, c.ranks)
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

	// Walk every segment this rank now owns, its own and any just
	// adopted (segment ownership is disjoint across live ranks, so
	// coverage is exact and write-exclusive). Roll back the aborted
	// level's partial writes: a vertex discovered at it loses its parent
	// again. Restore the level's entry frontier from the segment's
	// checkpoint: a dead rank's last slot write happened before its
	// final barrier operation, which happened before the fence, so the
	// adopter's read here is ordered. Then recount the unvisited
	// vertices, which the rollback has made exact.
	parent, level := c.res.Parent, c.res.Level
	q := rs.queue[:0]
	rs.front.Resize(c.g.NumVertices())
	rs.unvisited = 0
	for _, seg := range view.owned {
		lo, hi := c.layout.Range(seg)
		loW, hiW := c.layout.WordRange(seg)
		for v := lo; v < hi; v++ {
			if level[v] == step {
				parent[v] = NotVisited //lint:shared-ok owned segment: ownership is exclusive per epoch and the epoch fence ordered the dead rank's writes before this
				level[v] = NotVisited  //lint:shared-ok owned segment: ownership is exclusive per epoch and the epoch fence ordered the dead rank's writes before this
				c.visited.Clear(int(v))
			}
		}
		slot := &ft.ckpt[seg][step%2]
		if slot.step != step {
			c.fail(&fault.Error{
				Kind: fault.RankCrash, Device: fmt.Sprintf("segment%d", seg), Step: int(step),
				Reason: fmt.Sprintf("checkpoint for replay level missing (have level %d)", slot.step),
			})
			return false
		}
		if _, err := rs.front.ApplyDelta(slot.delta, loW); err != nil {
			c.fail(fmt.Errorf("bfs: sharded rank %d restoring segment %d: %w", rank, seg, err))
			return false
		}
		q = rs.front.AppendSetWords(q, loW, hiW)
		rs.unvisited += int64(hi-lo) - int64(c.visited.CountWords(loW, hiW))
	}
	rs.queue = q
	restored = int64(len(q))
	rs.ecq = 0
	for _, v := range q {
		rs.ecq += c.g.Degree(v)
	}
	return true
}
