package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary CSR container format, little-endian:
//
//	magic   [8]byte  "CSRGRAF1"
//	nverts  uint64
//	nedges  uint64   (len(Adj))
//	offsets [nverts+1]int64
//	adj     [nedges]int32
//
// The format is deliberately dumb: mmap-friendly layout, no
// compression, so cmd/rmatgen output can be large but loads at disk
// bandwidth.

var csrMagic = [8]byte{'C', 'S', 'R', 'G', 'R', 'A', 'F', '1'}

// WriteTo serializes the graph to w in the binary CSR format.
func (g *CSR) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var written int64
	put := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		written += int64(binary.Size(data))
		return nil
	}
	if err := put(csrMagic); err != nil {
		return written, err
	}
	if err := put(uint64(g.NumVertices())); err != nil {
		return written, err
	}
	if err := put(uint64(len(g.Adj))); err != nil {
		return written, err
	}
	if err := put(g.Offsets); err != nil {
		return written, err
	}
	if err := put(g.Adj); err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// ReadFrom deserializes a graph written by WriteTo. The result is
// validated structurally, and checked to be symmetric, so that a
// truncated, corrupted or directed file is reported as an error rather
// than a later panic or a wrong traversal.
func ReadFrom(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != csrMagic {
		return nil, fmt.Errorf("graph: bad magic %q (not a CSR graph file)", magic[:])
	}
	var nverts, nedges uint64
	if err := binary.Read(br, binary.LittleEndian, &nverts); err != nil {
		return nil, fmt.Errorf("graph: reading vertex count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &nedges); err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	const maxReasonable = 1 << 40
	if nverts > maxReasonable || nedges > maxReasonable {
		return nil, fmt.Errorf("graph: implausible header (%d vertices, %d edges)", nverts, nedges)
	}
	g := &CSR{}
	var err error
	if g.Offsets, err = readInts[int64](br, nverts+1); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if g.Adj, err = readInts[int32](br, nedges); err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: corrupt file: %w", err)
	}
	if err := g.checkSymmetric(); err != nil {
		return nil, fmt.Errorf("graph: corrupt file: %w", err)
	}
	return g, nil
}

// checkSymmetric returns an error naming an adjacency entry u->v
// without its reverse v->u (counted with multiplicity). Every BFS
// kernel reads the CSR as undirected, and the bottom-up and
// point-query kernels read v's list as v's in-edges, so a directed
// file would give wrong answers. It is one O(|E|) pass over a
// validated graph: walking u in ascending order, the entries naming v
// arrive in the order v's sorted list holds their reverses, so a
// cursor per vertex walks that list.
func (g *CSR) checkSymmetric() error {
	n := g.NumVertices()
	cursor := append([]int64(nil), g.Offsets[:n]...)
	unmatched := func(u, v int32) error {
		return fmt.Errorf("graph: adjacency not symmetric: entry %d->%d has no reverse", u, v)
	}
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Neighbors(u) {
			c := cursor[v]
			switch {
			case c < g.Offsets[v+1] && g.Adj[c] == u:
				cursor[v] = c + 1
			case c < g.Offsets[v+1] && g.Adj[c] < u:
				// Every vertex below u is done, and none named v for
				// this entry of v's list.
				return unmatched(v, g.Adj[c])
			default:
				return unmatched(u, v)
			}
		}
	}
	// Every entry advanced one cursor within its list, so all |E|
	// cursor steps fill the lists exactly: none is left short.
	return nil
}

// readChunk is the number of values readInts reads at a time.
const readChunk = 1 << 16

// readInts reads count little-endian values from r. The header's
// counts are not trusted for memory: the slice starts at one chunk and
// at most doubles as the data arrives, so a header that claims more
// than the input holds costs memory in proportion to the bytes that
// did arrive, and then fails with io.ErrUnexpectedEOF. Growth is
// capped at count, so a complete slice has cap == len.
func readInts[T int32 | int64](r io.Reader, count uint64) ([]T, error) {
	s := make([]T, 0, min(count, readChunk))
	for uint64(len(s)) < count {
		k := readChunk
		if left := count - uint64(len(s)); left < readChunk {
			k = int(left)
		}
		if cap(s)-len(s) < k {
			grown := make([]T, len(s), min(count, 2*uint64(cap(s))))
			copy(grown, s)
			s = grown
		}
		s = s[:len(s)+k]
		if err := binary.Read(r, binary.LittleEndian, s[len(s)-k:]); err != nil {
			if err == io.EOF && len(s) > k {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return s, nil
}

// Save writes the graph to path, creating or truncating it.
func (g *CSR) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a graph from path.
func Load(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}
