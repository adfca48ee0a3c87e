package bfs

import (
	"math/bits"
	"sync"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// Workspace holds every per-traversal buffer a BFS engine needs:
// the result's parent/level maps, the direction and scan logs, the
// frontier queues, the per-worker output shards of the parallel
// top-down kernels, and the visited/frontier/next bitmaps. It also owns the level dispatch
// state (fanout): the scheduler, the kernel arguments and per-level
// totals that a fan-out's workers share, the per-worker start
// functions, and what the last level ran, so a fan-out allocates
// nothing. Reusing one Workspace across traversals turns the entire
// working set into a reset, not a reallocation — the first-order
// optimization for repeated-traversal workloads (the Graph 500
// 64-root runner, the tuner's labelling sweep), where buffer
// lifecycle, not kernel arithmetic, dominates.
//
// Ownership rules:
//
//   - The caller acquires a Workspace (NewWorkspace, or WorkspacePool.Get)
//     and owns it until it releases it (WorkspacePool.Put).
//   - The engine resets it: every traversal begins by
//     re-preparing all buffers for the new (graph, source), so a
//     recycled Workspace can never leak prior traversal state. A
//     point query (PointQuery) resets the bitmaps it reads and writes
//     parent entries only for vertices whose bit it set.
//   - A Result produced with a Workspace aliases the workspace's
//     parent/level/direction storage. It is valid only until the
//     workspace's next traversal (or its return to a pool); callers
//     that need the maps afterwards must Clone the result first.
//   - A Workspace is not safe for concurrent use; concurrent roots
//     need one workspace each (RunMany handles this via its pool).
//   - No goroutine outlives a level: a fan-out's workers have all
//     exited when it returns, so a workspace that its pool drops takes
//     no goroutine with it.
type Workspace struct {
	// Result storage lent to the current traversal.
	result     Result
	parent     []int32
	level      []int32
	directions []Direction
	stepScans  []int64
	exchanges  []ExchangeStats

	// Frontier queues. The runner ping-pongs between them level by
	// level, so both stabilize at the widest frontier seen.
	queue []int32
	spare []int32
	// aux is the third queue of a point query (PointQuery), which
	// rotates one frontier per side and the expanding side's output
	// through queue, spare and aux.
	aux []int32

	// Per-worker output shards for the parallel top-down kernels,
	// hoisted here so they are built once per traversal set, not once
	// per level.
	locals [][]int32

	// visited is the claim bitmap; front/next are the bottom-up
	// frontier representations.
	visited *bitmap.Bitmap
	front   *bitmap.Bitmap
	next    *bitmap.Bitmap

	// fan dispatches each level: inline, or fanned out over workers.
	fan fanout
}

// NewWorkspace returns a workspace prepared for graphs of up to n
// vertices. It grows transparently if later used on a larger graph.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// Capacity returns the vertex count the workspace can currently serve
// without reallocating.
func (w *Workspace) Capacity() int { return cap(w.parent) }

// ensure sizes every vertex-indexed buffer for an n-vertex graph,
// reusing backing arrays whenever they are large enough.
func (w *Workspace) ensure(n int) {
	if cap(w.parent) < n {
		w.parent = make([]int32, n)
		w.level = make([]int32, n)
	} else {
		w.parent = w.parent[:n]
		w.level = w.level[:n]
	}
	if w.visited == nil {
		w.visited = bitmap.New(n)
		w.front = bitmap.New(n)
		w.next = bitmap.New(n)
	} else {
		w.visited.Resize(n)
		w.front.Resize(n)
		w.next.Resize(n)
	}
}

// begin resets the workspace for a traversal of g from source and
// returns the result shell backed by the workspace's buffers. This is
// the single reset point that guarantees pool hygiene: parent/level
// are refilled with NotVisited, the bitmaps are cleared, and the logs
// and queues are truncated, so no prior traversal state survives.
func (w *Workspace) begin(g *graph.CSR, source int32) *Result {
	w.ensure(g.NumVertices())
	fill(w.parent, NotVisited)
	copy(w.level, w.parent)
	w.parent[source] = source
	w.level[source] = 0
	w.result = Result{
		Source:     source,
		Parent:     w.parent,
		Level:      w.level,
		Directions: w.directions[:0],
		StepScans:  w.stepScans[:0],
		Exchanges:  w.exchanges[:0],
	}
	return &w.result
}

// fill sets every element of s to v by doubling copies, which run as
// memmove instead of a per-element loop.
func fill(s []int32, v int32) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// retain stores a finished traversal's grown slices back into the
// workspace so their capacity carries over to the next traversal.
func (w *Workspace) retain(r *Result, queue, spare []int32) {
	w.directions = r.Directions
	w.stepScans = r.StepScans
	w.exchanges = r.Exchanges
	w.queue = queue
	w.spare = spare
}

// workerShards returns k per-worker output slices, each truncated to
// zero length but keeping its capacity from earlier levels.
func (w *Workspace) workerShards(k int) [][]int32 {
	if k > len(w.locals) {
		grown := make([][]int32, k)
		copy(grown, w.locals)
		w.locals = grown
	}
	shards := w.locals[:k]
	for i := range shards {
		shards[i] = shards[i][:0]
	}
	return shards
}

// Clone returns a deep copy of r that aliases no workspace storage, so
// it stays valid after the workspace moves on to another traversal.
func (r *Result) Clone() *Result {
	c := *r
	c.Parent = append([]int32(nil), r.Parent...)
	c.Level = append([]int32(nil), r.Level...)
	c.Directions = append([]Direction(nil), r.Directions...)
	c.StepScans = append([]int64(nil), r.StepScans...)
	c.Exchanges = append([]ExchangeStats(nil), r.Exchanges...)
	return &c
}

// WorkspacePool is a size-keyed, sync.Pool-backed cache of Workspaces.
// Workspaces are bucketed by the power-of-two class of their vertex
// capacity, so a pool serving mixed graph sizes (the tuner's M/N sweep
// crosses scales) hands each request a workspace that already fits —
// Get never returns a workspace that must shrink-copy, and Put files a
// grown workspace under its new class. The zero value is ready to use.
type WorkspacePool struct {
	// classes[c] caches workspaces whose capacity class is c, i.e.
	// capacity in (2^(c-1), 2^c]. 64 classes cover any int.
	classes [64]sync.Pool
}

// DefaultPool is the process-wide pool used by RunMany and the
// workspace-aware helpers when the caller does not supply one.
var DefaultPool = &WorkspacePool{}

// sizeClass returns the smallest c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a workspace prepared for an n-vertex graph, recycling a
// pooled one when available.
func (p *WorkspacePool) Get(n int) *Workspace {
	c := sizeClass(n)
	if ws, ok := p.classes[c].Get().(*Workspace); ok {
		ws.ensure(n)
		return ws
	}
	// Allocate at the full class capacity so every future Get in this
	// class is served without growing.
	return NewWorkspace(1 << c)
}

// Put returns a workspace to the pool for reuse. The workspace must
// not be used (nor any Result still aliasing it read) after Put.
func (p *WorkspacePool) Put(ws *Workspace) {
	if ws == nil {
		return
	}
	p.classes[sizeClass(ws.Capacity())].Put(ws)
}
