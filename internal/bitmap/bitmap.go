// Package bitmap implements a dense bitset over vertex IDs with both
// plain and atomic mutation paths.
//
// Direction-optimizing BFS represents the frontier two ways: top-down
// keeps an explicit vertex queue, bottom-up keeps a bitmap so that a
// candidate child can test "is this neighbor in the current frontier?"
// in O(1) (paper §IV: "use bitmap for the CQ"). The atomic path lets
// parallel top-down workers claim vertices without locks.
package bitmap

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitmap is a fixed-size bitset over [0, Len()). The zero value is an
// empty bitmap of length 0; use New for a sized one.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a bitmap able to hold n bits, all clear. n must be >= 0.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative size")
	}
	return &Bitmap{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Len returns the number of bits the bitmap holds.
func (b *Bitmap) Len() int { return b.n }

// Resize sets the bitmap's length to n and clears every bit. The
// backing array is reused when it is already large enough, so a pooled
// traversal workspace can recycle one bitmap across graphs of
// different sizes without reallocating. Serial-phase only, like Reset.
func (b *Bitmap) Resize(n int) {
	if n < 0 {
		panic("bitmap: negative size")
	}
	words := (n + wordBits - 1) / wordBits
	if cap(b.words) < words {
		b.words = make([]uint64, words) //lint:shared-ok serial-phase API by contract, like Reset
	} else {
		b.words = b.words[:words] //lint:shared-ok serial-phase API by contract, like Reset
		for i := range b.words {
			b.words[i] = 0 //lint:shared-ok serial-phase API by contract, like Reset
		}
	}
	b.n = n
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i. Not safe for concurrent use with other writers; use
// SetAtomic in parallel sections.
func (b *Bitmap) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits) //lint:shared-ok serial-phase API by contract; parallel sections use SetAtomic
}

// Clear clears bit i. Like Set, it is a serial-phase operation.
func (b *Bitmap) Clear(i int) {
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits) //lint:shared-ok serial-phase API by contract; parallel sections use SetAtomic
}

// SetAtomic sets bit i with a CAS loop and reports whether this call
// changed it (i.e. the caller won the race to claim i).
func (b *Bitmap) SetAtomic(i int) bool {
	addr := &b.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// GetAtomic reports whether bit i is set, with an atomic load.
func (b *Bitmap) GetAtomic(i int) bool {
	return atomic.LoadUint64(&b.words[i/wordBits])&(1<<(uint(i)%wordBits)) != 0
}

// Reset clears every bit. Serial-phase only: the BFS runner resets
// scratch bitmaps between level expansions, never during one.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0 //lint:shared-ok serial-phase API by contract; no workers run between levels
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or sets b to the bitwise union of b and src. The bitmaps must have
// the same length.
func (b *Bitmap) Or(src *Bitmap) {
	if b.n != src.n {
		panic("bitmap: Or length mismatch")
	}
	for i, w := range src.words {
		b.words[i] |= w //lint:shared-ok serial-phase API by contract; no workers run between levels
	}
}

// Range calls fn for every set bit in increasing order.
func (b *Bitmap) Range(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*wordBits + bit)
			w &= w - 1
		}
	}
}

// AppendSet appends the indices of all set bits to dst and returns it.
func (b *Bitmap) AppendSet(dst []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi * wordBits)
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			dst = append(dst, base+int32(bit))
			w &= w - 1
		}
	}
	return dst
}

// Words exposes the backing words for word-at-a-time readers (the
// bottom-up kernel) and size accounting (e.g. modelling a frontier
// transfer across a PCIe link). The slice must not be mutated.
func (b *Bitmap) Words() []uint64 { return b.words }
