package core

import (
	"context"
	"fmt"
	"time"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
)

// MeasuredTiming is a real wall-clock timing of a traversal executed
// by the host kernels — the complement to the simulator: Simulate
// prices modeled devices, Measure times the actual Go implementation.
type MeasuredTiming struct {
	Policy string
	// StepWall holds per-level wall times (level i+1 = StepWall[i]).
	StepWall []time.Duration
	Total    time.Duration
	// EdgesVisited counts adjacency entries of the reachable
	// component; TEPS() divides by two per the Graph 500 convention.
	EdgesVisited int64
}

// TEPS returns real traversed edges per second.
func (m *MeasuredTiming) TEPS() float64 {
	if m.Total <= 0 {
		return 0
	}
	return float64(m.EdgesVisited) / 2 / m.Total.Seconds()
}

// Measure runs a real BFS under the given direction policy and returns
// the result plus wall-clock timings. Per-level times are captured at
// policy decision points (each level's expansion runs between two
// consecutive decisions), so the breakdown mirrors Table IV's rows for
// the host hardware this library actually runs on. ws may be nil;
// repeated-measurement loops (the Graph 500 real-mode runner) pass one
// so the traversal allocates nothing in steady state and the wall
// times reflect kernel work rather than allocator and GC noise. The
// returned Result aliases ws; see bfs.Run.
func Measure(g *graph.CSR, source int32, policy bfs.Policy, policyName string, workers int, ws *bfs.Workspace) (*bfs.Result, *MeasuredTiming, error) {
	if policy == nil {
		return nil, nil, fmt.Errorf("core: nil policy")
	}
	var marks []time.Time
	wrapped := bfs.PolicyFunc(func(s bfs.StepInfo) bfs.Direction {
		marks = append(marks, time.Now())
		return policy.Choose(s)
	})
	start := time.Now()
	res, err := bfs.Run(context.Background(), g, source, bfs.Options{Policy: wrapped, Workers: workers}, ws)
	end := time.Now()
	if err != nil {
		return nil, nil, err
	}

	m := &MeasuredTiming{
		Policy:       policyName,
		Total:        end.Sub(start),
		EdgesVisited: res.TraversedEdges,
	}
	for i, mark := range marks {
		stepEnd := end
		if i+1 < len(marks) {
			stepEnd = marks[i+1]
		}
		m.StepWall = append(m.StepWall, stepEnd.Sub(mark))
	}
	return res, m, nil
}
