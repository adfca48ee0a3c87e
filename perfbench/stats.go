package main

import (
	"fmt"
	"math"
	"sort"

	"crossbfs/internal/xmath"
)

// minBeyond is how many samples must rank above a percentile before it
// is reported: a p99 needs 1,000 samples, a p95 200, a p50 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100). It refuses, with an error, when fewer than minBeyond samples
// rank above the chosen one, because such a tail is a handful of
// outliers rather than a distribution.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[idx], nil
}

// samplesFor is the smallest sample count percentile accepts for p.
func samplesFor(p float64) int {
	return int(math.Ceil(float64(minBeyond) / (1 - p/100)))
}

// harmonicMTEPS is the Graph 500 aggregate: the harmonic mean over
// traversals of traversed edges per second, in millions. edges[i] is
// a traversal's directed adjacency count (bfs.Result.TraversedEdges);
// Graph 500 counts each undirected edge once, hence the halving.
func harmonicMTEPS(edges []int64, seconds []float64) float64 {
	teps := make([]float64, len(edges))
	for i, e := range edges {
		teps[i] = float64(e) / 2 / seconds[i]
	}
	return xmath.HarmonicMean(teps) / 1e6
}

// interval is a closed span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover; overlapping children are counted once and parts of children
// outside the span are ignored.
func selfTime(span interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, span.start)
		c.end = min(c.end, span.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return span.end - span.start - covered
}
