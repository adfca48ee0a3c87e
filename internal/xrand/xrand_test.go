package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 1234567 from the published SplitMix64
	// reference implementation (Vigna).
	sm := NewSplitMix64(1234567)
	got := []uint64{sm.Uint64(), sm.Uint64(), sm.Uint64()}
	want := []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("output %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestXoshiroKnownValues(t *testing.T) {
	// Reference xoshiro256** outputs (Blackman & Vigna) from the state
	// {1, 2, 3, 4}; Rand draws through the same State.
	s := State{1, 2, 3, 4}
	want := []uint64{11520, 0, 1509978240, 1215971899390074240, 1216172134540287360,
		607988272756665600, 16172922978634559625, 8476171486693032832,
		10595114339597558777, 2904607092377533576}
	for i, w := range want {
		var got uint64
		got, s = s.Next()
		if got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 collisions between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	a := make([]uint64, 50)
	for i := range a {
		a[i] = child.Uint64()
	}
	b := make([]uint64, 50)
	for i := range b {
		b[i] = parent.Uint64()
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("split stream matches parent at %d", i)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(99)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(-1) did not panic")
		}
	}()
	New(1).Intn(-1)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square-ish sanity: 10 buckets, 100k draws, each bucket
	// within 5% of expectation.
	r := New(2024)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := draws / buckets
	for b, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d has %d draws, want %d +/- 5%%", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 = %g, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + int(seed%64)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(11)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("shuffle changed element multiset: sum %d -> %d", sum, got)
	}
}

func TestIntnCoversRange(t *testing.T) {
	r := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(8)] = true
	}
	if len(seen) != 8 {
		t.Errorf("Intn(8) produced only %d distinct values in 1000 draws", len(seen))
	}
}

func TestInt63NonNegative(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.Int63(); v < 0 {
			t.Fatalf("Int63() = %d is negative", v)
		}
	}
}
