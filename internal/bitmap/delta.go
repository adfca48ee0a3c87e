package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Word-level access and delta (de)serialization.
//
// A 1D-partitioned BFS gives each rank ownership of a word-aligned
// vertex range, so per-level frontier exchange reduces to shipping the
// nonzero words of the owned range and OR-ing them into every replica.
// The wire format is sparse and self-delimiting: for each nonzero word,
// a uvarint gap from the previous index (starting at the encoding base)
// followed by the uvarint word value. Frontiers are sparse on most
// levels, so this is far smaller than the dense word range; on the
// saturated mid-levels it degrades to ~9/8 of dense, which the fabric
// model prices honestly either way.

// tailMask returns the valid-bit mask for word i: all ones except in
// the final word of a bitmap whose length is not a multiple of 64.
func (b *Bitmap) tailMask(i int) uint64 {
	if i == len(b.words)-1 && b.n%wordBits != 0 {
		return (uint64(1) << (uint(b.n) % wordBits)) - 1
	}
	return ^uint64(0)
}

// SetWord replaces backing word i. Bits beyond Len() are masked off so
// Count/Any stay exact. Serial-phase only, like Set: callers in
// parallel sections must own word i exclusively (e.g. a rank writing
// its word-aligned owned range).
func (b *Bitmap) SetWord(i int, w uint64) {
	b.words[i] = w & b.tailMask(i) //lint:shared-ok single-writer API by contract: callers own word i exclusively (word-aligned rank ranges)
}

// OrWord ORs w into backing word i, masking bits beyond Len(). Same
// ownership contract as SetWord.
func (b *Bitmap) OrWord(i int, w uint64) {
	b.words[i] |= w & b.tailMask(i) //lint:shared-ok single-writer API by contract: callers own word i exclusively (word-aligned rank ranges)
}

// CountWords returns the number of set bits in backing words [lo, hi).
func (b *Bitmap) CountWords(lo, hi int) int {
	c := 0
	for _, w := range b.words[lo:hi] {
		c += bits.OnesCount64(w)
	}
	return c
}

// AppendSetWords appends the indices of all set bits in backing words
// [lo, hi) to dst and returns it. Indices are global bit positions,
// like AppendSet.
func (b *Bitmap) AppendSetWords(dst []int32, lo, hi int) []int32 {
	for wi := lo; wi < hi; wi++ {
		w := b.words[wi]
		base := int32(wi * wordBits)
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = append(dst, base+int32(bit))
			w &= w - 1
		}
	}
	return dst
}

// AppendDelta appends a sparse encoding of backing words [lo, hi) to
// dst and returns it. Only nonzero words are encoded, each as a uvarint
// index gap (from lo for the first word, from the previous encoded
// index+1 after that) followed by the uvarint word value. Decode with
// ApplyDelta using the same base lo. An all-zero range encodes to zero
// bytes.
func (b *Bitmap) AppendDelta(dst []byte, lo, hi int) []byte {
	var buf [2 * binary.MaxVarintLen64]byte
	prev := lo // next un-gapped index
	for wi := lo; wi < hi; wi++ {
		w := b.words[wi]
		if w == 0 {
			continue
		}
		n := binary.PutUvarint(buf[:], uint64(wi-prev))
		n += binary.PutUvarint(buf[n:], w)
		dst = append(dst, buf[:n]...)
		prev = wi + 1
	}
	return dst
}

// ApplyDelta ORs a delta produced by AppendDelta into b, interpreting
// indices relative to base word lo. It returns the number of words
// OR'd. Malformed input — truncated varints, trailing bytes, or an
// index beyond the backing words — returns an error with b left partially
// updated (frontier union is idempotent, so callers simply abort the
// traversal). Same ownership contract as OrWord: the caller must own
// the destination words (each rank applies deltas into its private
// frontier replica).
func (b *Bitmap) ApplyDelta(data []byte, lo int) (int, error) {
	if lo < 0 || lo > len(b.words) {
		return 0, fmt.Errorf("bitmap: delta: base word %d out of range (have %d words)", lo, len(b.words))
	}
	wi := lo
	applied := 0
	for len(data) > 0 {
		gap, n := binary.Uvarint(data)
		if n <= 0 {
			return applied, fmt.Errorf("bitmap: delta: truncated index varint at word %d", wi)
		}
		data = data[n:]
		w, n := binary.Uvarint(data)
		if n <= 0 {
			return applied, fmt.Errorf("bitmap: delta: truncated word varint at word %d", wi)
		}
		data = data[n:]
		// wi <= len(b.words), so the subtraction cannot go negative and
		// the comparison rejects any gap that would land past the end
		// (including ones that would overflow wi+gap).
		if gap >= uint64(len(b.words)-wi) {
			return applied, fmt.Errorf("bitmap: delta: word index %d+%d out of range (have %d words)", wi, gap, len(b.words))
		}
		idx := wi + int(gap)
		b.OrWord(idx, w)
		applied++
		wi = idx + 1
	}
	return applied, nil
}
