package graph

// Analysis helpers used by the experiment drivers and examples:
// connected components (which also back the Graph 500 rule that search
// keys must reach more than a trivial component) and a BFS-based
// diameter estimate.

// ConnectedComponents labels every vertex with a component id in
// [0, count) and returns the labels and the component count.
// Isolated vertices get their own components.
func (g *CSR) ConnectedComponents() (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		id := int32(count)
		count++
		labels[start] = id
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if labels[v] == -1 {
					labels[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	return labels, count
}

// Eccentricity returns the largest BFS distance from source within its
// component (a lower bound on the graph's diameter).
func (g *CSR) Eccentricity(source int32) int32 {
	n := g.NumVertices()
	if source < 0 || int(source) >= n {
		return 0
	}
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	queue := []int32{source}
	var ecc int32
	for len(queue) > 0 {
		var next []int32
		for _, u := range queue {
			for _, v := range g.Neighbors(u) {
				if level[v] == -1 {
					level[v] = level[u] + 1
					if level[v] > ecc {
						ecc = level[v]
					}
					next = append(next, v)
				}
			}
		}
		queue = next
	}
	return ecc
}

// ApproxDiameter lower-bounds the diameter of the source's component
// with the standard double-sweep: BFS from source, then BFS again from
// the farthest vertex found.
func (g *CSR) ApproxDiameter(source int32) int32 {
	n := g.NumVertices()
	if source < 0 || int(source) >= n {
		return 0
	}
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	queue := []int32{source}
	far := source
	for len(queue) > 0 {
		var next []int32
		for _, u := range queue {
			for _, v := range g.Neighbors(u) {
				if level[v] == -1 {
					level[v] = level[u] + 1
					if level[v] > level[far] {
						far = v
					}
					next = append(next, v)
				}
			}
		}
		queue = next
	}
	return g.Eccentricity(far)
}
