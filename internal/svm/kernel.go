// Package svm implements epsilon-Support-Vector Regression trained
// with a pairwise SMO solver.
//
// The paper predicts the hybrid-BFS switching point with SVM
// regression (§II-C, §III-D), citing libsvm; this is a from-scratch
// replacement with the same model family: an epsilon-insensitive tube,
// a box constraint C, and linear or RBF kernels. It is deliberately
// sized for the paper's regime — ~140 training samples of ~12 features
// (Fig. 7) — where a dense Gram matrix and exhaustive pair selection
// are the simplest correct choices.
package svm

import (
	"fmt"
	"math"
)

// Kernel computes the inner product of two samples in feature space.
type Kernel interface {
	Eval(a, b []float64) float64
	String() string
}

// Linear is the plain dot-product kernel.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func (Linear) String() string { return "linear" }

// RBF is the Gaussian kernel exp(-gamma * ||a-b||^2).
type RBF struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Exp(-k.Gamma * d)
}

func (k RBF) String() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// Poly is the polynomial kernel (gamma*a.b + coef0)^degree, libsvm's
// third standard kernel. Degree must be >= 1.
type Poly struct {
	Gamma  float64
	Coef0  float64
	Degree int
}

// Eval implements Kernel.
func (k Poly) Eval(a, b []float64) float64 {
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	base := k.Gamma*dot + k.Coef0
	out := 1.0
	for i := 0; i < k.Degree; i++ {
		out *= base
	}
	return out
}

func (k Poly) String() string {
	return fmt.Sprintf("poly(gamma=%g, coef0=%g, degree=%d)", k.Gamma, k.Coef0, k.Degree)
}
