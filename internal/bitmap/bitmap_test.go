package bitmap

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		if got := New(n).Len(); got != n {
			t.Errorf("New(%d).Len() = %d", n, got)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestCount(t *testing.T) {
	b := New(200)
	if b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	if got, want := b.Count(), (199/3)+1; got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestSetAtomicClaimsOnce(t *testing.T) {
	b := New(64)
	if !b.SetAtomic(5) {
		t.Fatal("first SetAtomic returned false")
	}
	if b.SetAtomic(5) {
		t.Fatal("second SetAtomic returned true")
	}
	if !b.Get(5) {
		t.Fatal("bit not set")
	}
}

func TestSetAtomicConcurrentSingleWinner(t *testing.T) {
	// Many goroutines race for each bit: exactly one winner per bit.
	const n = 512
	const workers = 8
	b := New(n)
	wins := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.SetAtomic(i) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range wins {
		total += c
	}
	if total != n {
		t.Errorf("total wins = %d, want %d", total, n)
	}
	if b.Count() != n {
		t.Errorf("Count = %d, want %d", b.Count(), n)
	}
}

func TestRangeOrderAndCompleteness(t *testing.T) {
	b := New(300)
	want := []int{0, 1, 64, 65, 128, 255, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.Range(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("Range visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAppendSetMatchesRange(t *testing.T) {
	f := func(seed uint64) bool {
		b := New(256)
		for i := 0; i < 256; i++ {
			if (seed>>(uint(i)%64))&1 == 1 && i%3 == int(seed%3) {
				b.Set(i)
			}
		}
		var fromRange []int32
		b.Range(func(i int) { fromRange = append(fromRange, int32(i)) })
		fromAppend := b.AppendSet(nil)
		if len(fromRange) != len(fromAppend) {
			return false
		}
		for i := range fromRange {
			if fromRange[i] != fromAppend[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOr(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	a.Set(64)
	b.Set(64)
	b.Set(99)
	a.Or(b)
	for _, i := range []int{3, 64, 99} {
		if !a.Get(i) {
			t.Errorf("bit %d missing after Or", i)
		}
	}
	if a.Count() != 3 {
		t.Errorf("Count after Or = %d, want 3", a.Count())
	}
}

func TestOrLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths did not panic")
		}
	}()
	New(10).Or(New(20))
}

func TestGetAtomicSeesSet(t *testing.T) {
	b := New(70)
	b.Set(69)
	if !b.GetAtomic(69) {
		t.Error("GetAtomic does not see Set bit")
	}
	if b.GetAtomic(0) {
		t.Error("GetAtomic sees unset bit")
	}
}

func TestSetIdempotent(t *testing.T) {
	f := func(bit uint8) bool {
		b := New(256)
		i := int(bit)
		b.Set(i)
		b.Set(i)
		return b.Get(i) && b.Count() == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
