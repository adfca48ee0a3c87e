package bitmap

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestWordAccess(t *testing.T) {
	b := New(130) // 3 words, 2-bit tail
	if got := len(b.words); got != 3 {
		t.Fatalf("%d backing words, want 3", got)
	}
	b.SetWord(0, 0xDEADBEEF)
	if b.words[0] != 0xDEADBEEF {
		t.Fatalf("Word(0) = %#x", b.words[0])
	}
	b.OrWord(0, 0xF000_0000)
	if b.words[0] != 0xFEADBEEF {
		t.Fatalf("OrWord: Word(0) = %#x", b.words[0])
	}
	// The tail word only holds 2 valid bits; the rest must be masked
	// so Count stays exact.
	b.SetWord(2, ^uint64(0))
	if b.words[2] != 0b11 {
		t.Fatalf("tail word not masked: %#x", b.words[2])
	}
	if got := b.Count(); got != 25+2 { // popcount(0xFEADBEEF) + 2 tail bits
		t.Fatalf("Count = %d, want 27", got)
	}
}

func TestCountAppendSetWords(t *testing.T) {
	b := New(256)
	set := []int{0, 63, 64, 127, 128, 200, 255}
	for _, i := range set {
		b.Set(i)
	}
	if got := b.CountWords(1, 3); got != 3 { // bits 64..191: 64,127,128
		t.Fatalf("CountWords(1,3) = %d, want 3", got)
	}
	got := b.AppendSetWords(nil, 1, 3)
	want := []int32{64, 127, 128}
	if len(got) != len(want) {
		t.Fatalf("AppendSetWords = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendSetWords = %v, want %v", got, want)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(1500)
		src := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(9) == 0 {
				src.Set(i)
			}
		}
		lo := rng.Intn(len(src.words) + 1)
		hi := lo + rng.Intn(len(src.words)-lo+1)

		delta := src.AppendDelta(nil, lo, hi)
		dst := New(n)
		applied, err := dst.ApplyDelta(delta, lo)
		if err != nil {
			t.Fatalf("n=%d lo=%d hi=%d: ApplyDelta: %v", n, lo, hi, err)
		}
		wantWords := 0
		for wi := lo; wi < hi; wi++ {
			if src.words[wi] != 0 {
				wantWords++
			}
			if dst.words[wi] != src.words[wi] {
				t.Fatalf("n=%d lo=%d hi=%d: word %d = %#x, want %#x", n, lo, hi, wi, dst.words[wi], src.words[wi])
			}
		}
		if applied != wantWords {
			t.Fatalf("applied %d words, want %d", applied, wantWords)
		}
		for wi := 0; wi < len(dst.words); wi++ {
			if (wi < lo || wi >= hi) && dst.words[wi] != 0 {
				t.Fatalf("delta leaked outside [%d,%d): word %d = %#x", lo, hi, wi, dst.words[wi])
			}
		}
	}
}

func TestDeltaIsUnion(t *testing.T) {
	// ApplyDelta ORs: pre-existing bits survive, duplicates are idempotent.
	a, b := New(128), New(128)
	a.Set(3)
	a.Set(100)
	b.Set(3)
	b.Set(64)
	delta := a.AppendDelta(nil, 0, len(a.words))
	if _, err := b.ApplyDelta(delta, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyDelta(delta, 0); err != nil { // apply twice
		t.Fatal(err)
	}
	for _, i := range []int{3, 64, 100} {
		if !b.Get(i) {
			t.Fatalf("bit %d lost", i)
		}
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
}

func TestDeltaEmpty(t *testing.T) {
	b := New(512)
	if d := b.AppendDelta(nil, 0, len(b.words)); len(d) != 0 {
		t.Fatalf("empty range encoded to %d bytes", len(d))
	}
	if n, err := b.ApplyDelta(nil, 0); n != 0 || err != nil {
		t.Fatalf("ApplyDelta(nil) = %d, %v", n, err)
	}
}

func TestApplyDeltaRejectsMalformed(t *testing.T) {
	b := New(128)
	cases := map[string][]byte{
		"truncated index": {0x80},                                            // unterminated varint
		"missing word":    {0x00},                                            // index with no word value
		"truncated word":  {0x00, 0x80},                                      // word varint unterminated
		"out of range":    {0x7F, 0x01},                                      // gap 127 >= 2 words
		"huge gap":        append(bytes.Repeat([]byte{0xFF}, 9), 0x01, 0x01), // ~2^63 gap
	}
	for name, data := range cases {
		if _, err := b.ApplyDelta(data, 0); err == nil {
			t.Errorf("%s: ApplyDelta accepted %x", name, data)
		}
	}
	if _, err := b.ApplyDelta([]byte{0x00, 0x01}, 99); err == nil {
		t.Error("base beyond the backing words accepted")
	}
	if _, err := b.ApplyDelta([]byte{0x00, 0x01}, -1); err == nil {
		t.Error("negative base accepted")
	}
}

// FuzzApplyDelta: arbitrary bytes must decode to an error or a valid
// union — never a panic, never a bit outside the bitmap.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{}, uint16(64), uint8(0))
	f.Add([]byte{0x00, 0xFF}, uint16(130), uint8(1))
	f.Add([]byte{0x02, 0x01, 0x00, 0x80, 0x01}, uint16(512), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, size uint16, lo uint8) {
		b := New(int(size))
		_, _ = b.ApplyDelta(data, int(lo))
		if b.n%wordBits != 0 && len(b.words) > 0 {
			tail := b.words[len(b.words)-1]
			if tail&^b.tailMask(len(b.words)-1) != 0 {
				t.Fatalf("bits set beyond Len(): tail %#x", tail)
			}
		}
	})
}

// FuzzDeltaRoundTrip: encode/apply over fuzz-chosen bit patterns must
// reproduce the source range exactly.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{0xFF, 0x00, 0x01}, uint16(200), uint8(0), uint8(4))
	f.Add([]byte{}, uint16(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, bits []byte, size uint16, lo, span uint8) {
		n := int(size)%2048 + 1
		src := New(n)
		for i, by := range bits {
			for j := 0; j < 8; j++ {
				if by&(1<<j) != 0 {
					if idx := (i*8 + j) % n; true {
						src.Set(idx)
					}
				}
			}
		}
		loW := int(lo) % (len(src.words) + 1)
		hiW := loW + int(span)
		if hiW > len(src.words) {
			hiW = len(src.words)
		}
		delta := src.AppendDelta(nil, loW, hiW)
		dst := New(n)
		if _, err := dst.ApplyDelta(delta, loW); err != nil {
			t.Fatalf("round-trip ApplyDelta: %v", err)
		}
		for wi := 0; wi < len(src.words); wi++ {
			want := uint64(0)
			if wi >= loW && wi < hiW {
				want = src.words[wi]
			}
			if dst.words[wi] != want {
				t.Fatalf("word %d = %#x, want %#x", wi, dst.words[wi], want)
			}
		}
	})
}
