package bfs

import "fmt"

// This file implements the switching heuristics from the work the
// paper builds on and compares against (§VI), as alternative Policy
// implementations:
//
//   - Beamer, Asanovic, Patterson (SC'12): the original
//     direction-optimizing heuristic with alpha/beta tuning constants.
//   - Hong, Oguntebi, Olukotun (PACT'11): a read-based (bitmap)
//     switch driven by frontier growth.
//
// Having them lets the experiments compare the paper's (M, N) rule
// against its ancestors on equal footing.

// AlphaBeta is Beamer's SC'12 heuristic, which is stateful: while
// top-down, switch to bottom-up when the frontier's edge work m_f
// exceeds the unexplored edge work m_u scaled by 1/alpha; while
// bottom-up, switch back to top-down when the frontier has shrunk
// below |V|/beta vertices. Beamer's tuned defaults are alpha=14,
// beta=24. Use NewAlphaBeta for each traversal (the phase is
// per-traversal state).
type AlphaBeta struct {
	Alpha, Beta float64
	bottomUp    bool // current phase
}

// NewAlphaBeta returns a fresh per-traversal policy. Non-positive
// arguments select Beamer's published constants (14, 24).
func NewAlphaBeta(alpha, beta float64) *AlphaBeta {
	if alpha <= 0 {
		alpha = 14
	}
	if beta <= 0 {
		beta = 24
	}
	return &AlphaBeta{Alpha: alpha, Beta: beta}
}

// Validate reports whether the constants are usable.
func (p *AlphaBeta) Validate() error {
	if p.Alpha <= 0 || p.Beta <= 0 {
		return fmt.Errorf("bfs: alpha/beta must be positive, got (%g, %g)", p.Alpha, p.Beta)
	}
	return nil
}

// Choose implements Policy. Non-positive or NaN constants (a policy
// built without NewAlphaBeta) fall back to Beamer's published values
// rather than producing a divide-by-zero comparison that freezes the
// policy in one direction.
func (p *AlphaBeta) Choose(s StepInfo) Direction {
	alpha, beta := p.Alpha, p.Beta
	if !(alpha > 0) { // catches zero, negatives, and NaN
		alpha = 14
	}
	if !(beta > 0) {
		beta = 24
	}
	if !p.bottomUp {
		// m_u: edges incident to unexplored vertices. StepInfo does
		// not carry the exact figure; the unexplored share of all
		// edges is the standard approximation (exact in expectation
		// for degree-uncorrelated level sets).
		mf := float64(s.FrontierEdges)
		mu := float64(s.TotalEdges)
		if s.TotalVertices > 0 {
			mu *= float64(s.UnvisitedVertices) / float64(s.TotalVertices)
		}
		if mf > mu/alpha {
			p.bottomUp = true
		}
	} else {
		if float64(s.FrontierVertices) < float64(s.TotalVertices)/beta {
			p.bottomUp = false
		}
	}
	if p.bottomUp {
		return BottomUp
	}
	return TopDown
}

// HongHybrid is the PACT'11 heuristic of Hong et al.: switch from the
// queue-based kernel to the read-based (bitmap) kernel once the
// frontier exceeds a fixed fraction of the vertices, and never switch
// back. The original switches between two top-down implementations;
// mapped onto this codebase's kernels, the read-based phase is the
// bitmap bottom-up. Stateful: use NewHongHybrid per traversal.
type HongHybrid struct {
	// Threshold is the frontier fraction of |V| that triggers the
	// switch; Hong et al. use ~3%.
	Threshold float64
	switched  bool
}

// NewHongHybrid returns a per-traversal policy instance with the
// published threshold.
func NewHongHybrid() *HongHybrid { return &HongHybrid{Threshold: 0.03} }

// Choose implements Policy. A non-positive or NaN threshold (a
// zero-value policy built without NewHongHybrid) falls back to the
// published 3% rather than switching on the very first frontier.
func (p *HongHybrid) Choose(s StepInfo) Direction {
	threshold := p.Threshold
	if !(threshold > 0) { // catches zero, negatives, and NaN
		threshold = 0.03
	}
	if !p.switched && float64(s.FrontierVertices) >= threshold*float64(s.TotalVertices) {
		p.switched = true
	}
	if p.switched {
		return BottomUp
	}
	return TopDown
}
