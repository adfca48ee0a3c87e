// Package graph500 implements the benchmark methodology the paper
// evaluates with (§II-D, Table I): R-MAT graph construction, BFS runs
// from sampled search keys, TEPS as the metric, and result validation.
// It also carries the naive level-synchronized reference BFS that
// stands in for the stock Graph 500 code in the §V-D comparison.
package graph500

import (
	"context"
	"errors"
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/graph"
	"crossbfs/internal/invariant"
	"crossbfs/internal/xmath"
	"crossbfs/internal/xrand"
)

// DefaultNumRoots is the Graph 500 search-key count (64 BFS runs).
const DefaultNumRoots = 64

// SampleRoots draws n distinct non-isolated search keys, per the
// Graph 500 sampling rule. It returns fewer if the graph has fewer
// non-isolated vertices.
func SampleRoots(g *graph.CSR, n int, seed uint64) []int32 {
	rng := xrand.New(seed ^ 0x67726170)
	seen := make(map[int32]bool, n)
	roots := make([]int32, 0, n)
	nv := g.NumVertices()
	if nv == 0 {
		return roots
	}
	for tries := 0; len(roots) < n && tries < 64*n+4*nv; tries++ {
		v := int32(rng.Intn(nv))
		if !seen[v] && g.Degree(v) > 0 {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	return roots
}

// RunResult is the Graph 500 summary of one benchmarked configuration.
type RunResult struct {
	Plan      string
	NumRoots  int
	TEPS      []float64 // per-root TEPS
	Times     []float64 // per-root simulated seconds
	Harmonic  float64   // harmonic-mean TEPS, the official aggregate
	Mean      float64
	Min, Max  float64
	TotalTime float64
}

// GTEPS returns the harmonic-mean TEPS in billions (Table VI's unit).
func (r *RunResult) GTEPS() float64 { return r.Harmonic / 1e9 }

// Run benchmarks a plan over sampled roots: a BFS per root is priced
// on the simulator (kernel 2 of Graph 500), and each result is
// validated before it counts. The batch goes through bfs.RunMany,
// so the whole 64-root run shares a small set of pooled traversal
// workspaces (one per in-flight root) instead of reallocating the
// working set per key, and independent roots traverse concurrently.
func Run(g *graph.CSR, plan core.Plan, link archsim.Link, numRoots int, seed uint64) (*RunResult, error) {
	if numRoots <= 0 {
		numRoots = DefaultNumRoots
	}
	roots := SampleRoots(g, numRoots, seed)
	if len(roots) == 0 {
		return nil, errors.New("graph500: graph has no usable search keys")
	}
	res := &RunResult{
		Plan:     plan.Name(),
		NumRoots: len(roots),
		Times:    make([]float64, len(roots)),
		TEPS:     make([]float64, len(roots)),
	}
	err := bfs.RunMany(context.Background(), g, roots, bfs.ManyOptions{Engine: bfs.SerialEngine()},
		func(i int, root int32, r *bfs.Result) error {
			if err := bfs.Validate(g, r); err != nil {
				return fmt.Errorf("graph500: root %d failed validation: %w", root, err)
			}
			if err := invariant.Check(g, root, r.Parent, r.Level); err != nil {
				return fmt.Errorf("graph500: root %d: %w", root, err)
			}
			tr, err := bfs.ComputeTrace(g, r)
			if err != nil {
				return err
			}
			timing := core.Simulate(tr, plan, link)
			// Indexed writes: the batch runner delivers each i exactly
			// once, so concurrent callbacks never share a slot.
			res.Times[i] = timing.Total //lint:shared-ok RunMany delivers each index to exactly one callback
			res.TEPS[i] = timing.TEPS() //lint:shared-ok RunMany delivers each index to exactly one callback
			return nil
		})
	if err != nil {
		return nil, err
	}
	for _, t := range res.Times {
		res.TotalTime += t
	}
	res.Harmonic = xmath.HarmonicMean(res.TEPS)
	res.Mean = xmath.Mean(res.TEPS)
	res.Min = xmath.Min(res.TEPS)
	res.Max = xmath.Max(res.TEPS)
	return res, nil
}
