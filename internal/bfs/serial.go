package bfs

import (
	"context"
	"time"

	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// serialEngine is the textbook queue-based BFS as an Engine. It is the
// correctness reference for every other kernel and the model of the
// "serial version" the paper uses to explain the CPU/MIC gap (§V-C).
type serialEngine struct{}

// SerialEngine returns the serial reference kernel as an Engine.
func SerialEngine() Engine { return serialEngine{} }

// Name implements Engine.
func (serialEngine) Name() string { return "serial" }

// Run implements Engine.
func (e serialEngine) Run(g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunObserved(context.Background(), g, source, ws, nil)
}

// RunObserved implements Engine. The serial kernel has no goroutines
// to contain, so cancellation is observed once per level. Serial
// levels are all top-down, so the event stream has no switch events;
// per-level events still carry the exact |V|cq and per-step wall time.
func (e serialEngine) RunObserved(ctx context.Context, g *graph.CSR, source int32, ws *Workspace, rec obs.Recorder) (_ *Result, err error) {
	var (
		o    tobs
		done *Result
	)
	defer func() { o.end(done, err) }()
	defer func() { recoverToError(recover(), &err) }()
	if err := checkSource(g, source); err != nil {
		return nil, err
	}
	reusedWS := ws != nil
	if ws == nil {
		ws = NewWorkspace(g.NumVertices())
	}
	o = observeStart(rec, g, source, e.Name(), reusedWS)
	r := ws.begin(g, source)
	unvisited := int64(g.NumVertices()) - 1
	step := int32(1)
	cq := append(ws.queue[:0], source)
	nq := ws.spare[:0]
	cqEdges := g.Degree(source) // |E|cq of cq
	for len(cq) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var stepStart time.Time
		if o.live {
			stepStart = time.Now()
		}
		nq = nq[:0]
		var nqEdges int64
		for _, u := range cq {
			for _, v := range g.Neighbors(u) {
				if r.Parent[v] == NotVisited {
					r.Parent[v] = u
					r.Level[v] = r.Level[u] + 1
					nq = append(nq, v)
					nqEdges += g.Degree(v)
				}
			}
		}
		r.Directions = append(r.Directions, TopDown)
		r.StepScans = append(r.StepScans, 0)
		if o.live {
			o.event(obs.Event{
				Kind: obs.KindLevel, Step: step, Dir: obs.TopDown,
				FrontierVertices: int64(len(cq)),
				FrontierEdges:    cqEdges,
				Discovered:       int64(len(nq)),
				Unvisited:        unvisited,
				Grains:           1,
				Workers:          1,
				Wall:             stepStart,
				WallDur:          time.Since(stepStart),
			})
		}
		r.TraversedEdges += cqEdges
		unvisited -= int64(len(nq))
		step++
		cq, nq = nq, cq
		cqEdges = nqEdges
	}
	ws.retain(r, cq, nq)
	r.VisitedCount = int64(g.NumVertices()) - unvisited
	done = r
	return r, nil
}
