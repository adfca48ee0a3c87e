package xmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9 || math.Abs(a-b) < 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want) {
			t.Errorf("Mean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 2, 4}); !almostEqual(got, 3/(1+0.5+0.25)) {
		t.Errorf("HarmonicMean = %g", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("HarmonicMean(nil) = %g, want 0", got)
	}
	if got := HarmonicMean([]float64{2, 0, 3}); got != 0 {
		t.Errorf("HarmonicMean with zero = %g, want 0", got)
	}
}

func TestHarmonicLeGeoLeArith(t *testing.T) {
	// AM >= GM >= HM for positive values.
	f := func(seed int64) bool {
		xs := make([]float64, 1+int(seed%7+7)%7)
		v := float64(seed%1000+1001) / 7
		for i := range xs {
			v = math.Mod(v*9301+49297, 233280) + 1
			xs[i] = v
		}
		logSum := 0.0
		for _, x := range xs {
			logSum += math.Log(x)
		}
		am, gm, hm := Mean(xs), math.Exp(logSum/float64(len(xs))), HarmonicMean(xs)
		return am >= gm-1e-9 && gm >= hm-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %g", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %g", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +/-Inf")
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, math.Sqrt(32.0/7)) {
		t.Errorf("StdDev = %g", got)
	}
	if got := StdDev([]float64{1}); got != 0 {
		t.Errorf("StdDev of singleton = %g, want 0", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %g, want 3", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("Quantile(0) = %g, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("Quantile(1) = %g, want 5", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated quantile = %g, want 1.5", got)
	}
	// Quantile must not mutate its input.
	if xs[0] != 5 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestQuantileMonotone(t *testing.T) {
	xs := []float64{9, 1, 6, 6, 2, 8, 4}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := Quantile(xs, q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%.2f: %g < %g", q, v, prev)
		}
		prev = v
	}
}
