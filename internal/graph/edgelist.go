package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Plain-text edge-list support (the format SNAP and most public graph
// datasets use): one "u v" pair per line, '#' or '%' comment lines
// ignored. Vertex ids may be arbitrary non-negative integers; they are
// compacted to a dense [0, n) range and the mapping is returned so
// results can be translated back.

// ReadEdgeList parses a text edge list from r. It returns the edges
// with compacted vertex ids, the number of distinct vertices, and
// origIDs where origIDs[compact] = original id.
func ReadEdgeList(r io.Reader) (edges []Edge, numVertices int, origIDs []int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	compact := make(map[int64]int32)
	lookup := func(orig int64) int32 {
		if id, ok := compact[orig]; ok {
			return id
		}
		id := int32(len(origIDs))
		compact[orig] = id
		origIDs = append(origIDs, orig)
		return id
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, nil, fmt.Errorf("graph: line %d: want 'u v', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("graph: line %d: bad vertex %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, 0, nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		edges = append(edges, Edge{From: lookup(u), To: lookup(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return edges, len(origIDs), origIDs, nil
}

// LoadEdgeList reads a text edge list file and builds a symmetrized,
// deduplicated CSR graph. Returns the graph and the compact->original
// vertex id mapping.
func LoadEdgeList(path string) (*CSR, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	edges, n, origIDs, err := ReadEdgeList(f)
	if err != nil {
		return nil, nil, err
	}
	g, err := Build(n, edges, BuildOptions{Symmetrize: true})
	if err != nil {
		return nil, nil, err
	}
	return g, origIDs, nil
}
