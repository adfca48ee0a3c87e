package svm

import (
	"testing"

	"crossbfs/internal/xrand"
)

// paperCorpus mimics the paper's training regime: ~140 samples of 12
// scaled features.
func paperCorpus(n int) ([][]float64, []float64) {
	rng := xrand.New(9)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, 12)
		for j := range x {
			x[j] = rng.Float64()
		}
		X[i] = x
		y[i] = 3*x[0] - x[3] + 0.5*x[7]*x[7] + 0.1*rng.NormFloat64()
	}
	return X, y
}

func BenchmarkTrainSVR140(b *testing.B) {
	X, y := paperCorpus(140)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainSVR(X, y, SVRParams{C: 64, Epsilon: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	X, y := paperCorpus(140)
	m, err := TrainSVR(X, y, SVRParams{C: 64, Epsilon: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	probe := X[7]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(probe)
	}
}
