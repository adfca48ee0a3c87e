package svm

import (
	"math"
	"testing"
	"testing/quick"

	"crossbfs/internal/xrand"
)

func TestLinearKernel(t *testing.T) {
	k := Linear{}
	if got := k.Eval([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("dot = %g, want 32", got)
	}
}

func TestRBFKernel(t *testing.T) {
	k := RBF{Gamma: 0.5}
	if got := k.Eval([]float64{1, 1}, []float64{1, 1}); got != 1 {
		t.Errorf("RBF(x,x) = %g, want 1", got)
	}
	got := k.Eval([]float64{0, 0}, []float64{1, 1})
	want := math.Exp(-0.5 * 2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RBF = %g, want %g", got, want)
	}
}

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{Gamma: 1.3}
	f := func(ai, bi [3]int8) bool {
		// Bounded inputs keep exp from underflowing to exactly 0: float64
		// exp reaches 0 once gamma*||x-y||^2 passes about 745, and /32
		// caps it at 1.3 * 3 * (255/32)^2 ~ 248.
		x := []float64{float64(ai[0]) / 32, float64(ai[1]) / 32, float64(ai[2]) / 32}
		y := []float64{float64(bi[0]) / 32, float64(bi[1]) / 32, float64(bi[2]) / 32}
		v := k.Eval(x, y)
		// Symmetric, bounded in (0, 1], and K(x,x)=1.
		return v > 0 && v <= 1 && math.Abs(v-k.Eval(y, x)) < 1e-15 && k.Eval(x, x) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	// A far pair at the old /16 scaling: gamma*||x-y||^2 ~ 751, so exp
	// underflows to 0. Eval must still be finite, symmetric and in [0, 1].
	x := []float64{-117.0 / 16, -110.0 / 16, 127.0 / 16}
	y := []float64{123.0 / 16, 105.0 / 16, -83.0 / 16}
	v := k.Eval(x, y)
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 || v != k.Eval(y, x) {
		t.Errorf("RBF on far pair = %g (reversed %g), want a finite symmetric value in [0, 1]", v, k.Eval(y, x))
	}
}

func TestPolyKernel(t *testing.T) {
	k := Poly{Gamma: 1, Coef0: 1, Degree: 2}
	// (1*2 + 1)^2 = 9 for a.b = 2.
	if got := k.Eval([]float64{1, 1}, []float64{1, 1}); got != 9 {
		t.Errorf("poly = %g, want 9", got)
	}
	if k.String() == "" {
		t.Error("empty kernel name")
	}
}

func TestSVRFitsQuadraticWithPoly(t *testing.T) {
	var X [][]float64
	var y []float64
	for i := 0; i <= 20; i++ {
		x := float64(i)/10 - 1 // [-1, 1]
		X = append(X, []float64{x})
		y = append(y, x*x)
	}
	m, err := TrainSVR(X, y, SVRParams{Kernel: Poly{Gamma: 1, Coef0: 1, Degree: 2}, C: 100, Epsilon: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if diff := math.Abs(m.Predict(x) - y[i]); diff > 0.1 {
			t.Errorf("poly fit at %v: %g vs %g", x, m.Predict(x), y[i])
		}
	}
}

func TestSVRFitsLine(t *testing.T) {
	// y = 2x + 1, exact within epsilon.
	var X [][]float64
	var y []float64
	for i := 0; i <= 20; i++ {
		x := float64(i) / 20
		X = append(X, []float64{x})
		y = append(y, 2*x+1)
	}
	m, err := TrainSVR(X, y, SVRParams{Kernel: Linear{}, C: 100, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if diff := math.Abs(m.Predict(x) - y[i]); diff > 0.05 {
			t.Errorf("Predict(%v) = %g, want %g (diff %g)", x, m.Predict(x), y[i], diff)
		}
	}
	// Interpolation at an unseen point.
	if got := m.Predict([]float64{0.525}); math.Abs(got-2.05) > 0.05 {
		t.Errorf("unseen point: %g, want ~2.05", got)
	}
}

func TestSVRFitsMultivariateLinear(t *testing.T) {
	// y = 3a - 2b + 0.5
	rng := xrand.New(7)
	var X [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		y = append(y, 3*a-2*b+0.5)
	}
	m, err := TrainSVR(X, y, SVRParams{Kernel: Linear{}, C: 100, Epsilon: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i, x := range X {
		maxErr = math.Max(maxErr, math.Abs(m.Predict(x)-y[i]))
	}
	if maxErr > 0.1 {
		t.Errorf("max train error %g > 0.1", maxErr)
	}
}

func TestSVRFitsSineWithRBF(t *testing.T) {
	var X [][]float64
	var y []float64
	for i := 0; i <= 40; i++ {
		x := float64(i) / 40 * 2 * math.Pi
		X = append(X, []float64{x / (2 * math.Pi)}) // scaled to [0,1]
		y = append(y, math.Sin(x))
	}
	m, err := TrainSVR(X, y, SVRParams{Kernel: RBF{Gamma: 20}, C: 100, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i, x := range X {
		worst = math.Max(worst, math.Abs(m.Predict(x)-y[i]))
	}
	if worst > 0.15 {
		t.Errorf("max |error| on sine = %g > 0.15", worst)
	}
}

func TestSVRRespectsEpsilonTube(t *testing.T) {
	// With a huge epsilon no sample should become a support vector
	// (the zero function is within the tube).
	X := [][]float64{{0}, {0.5}, {1}}
	y := []float64{0.1, -0.1, 0.05}
	m, err := TrainSVR(X, y, SVRParams{Kernel: Linear{}, C: 10, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSupportVectors() != 0 {
		t.Errorf("%d support vectors with eps covering all targets, want 0", m.NumSupportVectors())
	}
}

func TestSVRSparsity(t *testing.T) {
	// A generous tube on smooth data should leave many samples as
	// non-support-vectors.
	var X [][]float64
	var y []float64
	for i := 0; i <= 50; i++ {
		x := float64(i) / 50
		X = append(X, []float64{x})
		y = append(y, x)
	}
	m, err := TrainSVR(X, y, SVRParams{Kernel: Linear{}, C: 10, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSupportVectors() > len(X)/2 {
		t.Errorf("%d of %d samples are support vectors; epsilon-tube sparsity lost", m.NumSupportVectors(), len(X))
	}
}

func TestSVRInputValidation(t *testing.T) {
	if _, err := TrainSVR(nil, nil, SVRParams{C: 1}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := TrainSVR([][]float64{{1}}, []float64{1, 2}, SVRParams{C: 1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := TrainSVR([][]float64{{1}, {1, 2}}, []float64{1, 2}, SVRParams{C: 1}); err == nil {
		t.Error("ragged samples accepted")
	}
	if _, err := TrainSVR([][]float64{{1}}, []float64{1}, SVRParams{C: 0}); err == nil {
		t.Error("C=0 accepted")
	}
	if _, err := TrainSVR([][]float64{{1}}, []float64{1}, SVRParams{C: 1, Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
}

func TestSVRDefaultKernel(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}}
	y := []float64{0, 1, 0.5}
	m, err := TrainSVR(X, y, SVRParams{C: 10, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Kernel.(RBF); !ok {
		t.Errorf("default kernel = %s, want RBF", m.Kernel)
	}
}

func TestSVRConstantTarget(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []float64{5, 5, 5}
	m, err := TrainSVR(X, y, SVRParams{Kernel: Linear{}, C: 10, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.7}); math.Abs(got-5) > 0.1 {
		t.Errorf("constant fit predicts %g, want 5", got)
	}
}

func TestSVRDuplicatePoints(t *testing.T) {
	// Identical samples with identical targets must not break eta=0
	// handling.
	X := [][]float64{{1}, {1}, {2}, {2}}
	y := []float64{1, 1, 2, 2}
	m, err := TrainSVR(X, y, SVRParams{Kernel: Linear{}, C: 10, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{1.5}); math.Abs(got-1.5) > 0.2 {
		t.Errorf("duplicate-point fit predicts %g, want ~1.5", got)
	}
}

func TestScalerRoundTrip(t *testing.T) {
	X := [][]float64{{0, 10, 5}, {100, 20, 5}, {50, 15, 5}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	scaled := s.TransformAll(X)
	for i, row := range scaled {
		for j, v := range row {
			if j == 2 {
				if v != 0 {
					t.Errorf("constant feature scaled to %g, want 0", v)
				}
				continue
			}
			if v < 0 || v > 1 {
				t.Errorf("scaled[%d][%d] = %g outside [0,1]", i, j, v)
			}
		}
	}
	if scaled[0][0] != 0 || scaled[1][0] != 1 {
		t.Error("min/max not mapped to 0/1")
	}
}

func TestScalerExtrapolates(t *testing.T) {
	s, err := FitScaler([][]float64{{0}, {10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Transform([]float64{20})[0]; got != 2 {
		t.Errorf("out-of-range value scaled to %g, want 2", got)
	}
	if got := s.Transform([]float64{-10})[0]; got != -1 {
		t.Errorf("below-range value scaled to %g, want -1", got)
	}
}

func TestScalerEmptyInput(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Error("empty scaler fit accepted")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged scaler fit accepted")
	}
}

// TestSVRBetterThanMeanBaseline: on structured data the SVR must beat
// predicting the mean — a minimal usefulness bar.
func TestSVRBetterThanMeanBaseline(t *testing.T) {
	rng := xrand.New(11)
	var X [][]float64
	var y []float64
	for i := 0; i < 80; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		y = append(y, 10*a*a+3*b+rng.NormFloat64()*0.1)
	}
	m, err := TrainSVR(X, y, SVRParams{Kernel: RBF{Gamma: 2}, C: 50, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var svrSE, meanSE float64
	for i, x := range X {
		svrSE += (m.Predict(x) - y[i]) * (m.Predict(x) - y[i])
		meanSE += (mean - y[i]) * (mean - y[i])
	}
	if svrSE > meanSE/4 {
		t.Errorf("SVR train SSE %g vs mean-baseline %g: model barely fits", svrSE, meanSE)
	}
}
