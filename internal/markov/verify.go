package markov

import (
	"fmt"
	"math"

	"rsin/internal/invariant"
	"rsin/internal/linalg"
)

// verifySolution checks the structural invariants of the stationary
// distribution SolveMatrixGeometric computed: the rate blocks assemble
// into a valid CTMC generator, π is a probability distribution (entries
// ≥ 0 up to noise, Σπ = 1), and the π·Q residual of every checkable
// balance equation vanishes within a rate-scaled tolerance.
//
// The level list is a materialized geometric tail cut off below 1e-16
// mass. All equations hold against the untruncated blocks except the
// final level's, whose dropped π_{L+1}·A2 term is bounded by the cut
// mass, so the balance check covers the boundary and levels 1..L−1.
func verifySolution(p Params, pi0 []float64, levels [][]float64) error {
	if err := verifyDistribution(p, pi0, levels, 1e-8); err != nil {
		return err
	}
	return verifyBalance(p, pi0, levels, len(levels)-1)
}

// rateScale is the largest total rate out of any state (at least 1),
// the scale of the generator and residual tolerances.
func rateScale(p Params) float64 {
	scale := 1.0
	if s := p.TotalArrival() + p.MuN + float64(p.R)*p.MuS; s > scale {
		scale = s
	}
	return scale
}

// verifyDistribution checks that the rate blocks assemble into a valid
// CTMC generator and that pi0 with the levels is a probability
// distribution within tol.
func verifyDistribution(p Params, pi0 []float64, levels [][]float64, tol float64) error {
	if err := invariant.Generator("markov", assembleTruncated(p), 1e-9*rateScale(p)); err != nil {
		return err
	}
	flat := append([]float64(nil), pi0...)
	for _, pl := range levels {
		flat = append(flat, pl...)
	}
	return invariant.Distribution("markov", flat, tol)
}

// verifyBalance checks the boundary balance equations and those of
// levels 1..top against the untruncated blocks; level top+1 enters
// through its A2 term when it is materialized.
func verifyBalance(p Params, pi0 []float64, levels [][]float64, top int) error {
	a0, a1, a2, b00, b01, b10 := blocks(p)
	d := p.R + 1
	rtol := 1e-8 * rateScale(p)
	level := func(l int) []float64 {
		if l >= 1 && l <= len(levels) {
			return levels[l-1]
		}
		return nil
	}

	// Boundary equations: π_0·B00 + π_1·B10 = 0.
	resid := linalg.VecMul(pi0, b00)
	addVecMul(resid, level(1), b10)
	if err := residualSmall("boundary", resid, rtol); err != nil {
		return err
	}

	for l := 1; l <= top; l++ {
		r := make([]float64, d)
		if l == 1 {
			addVecMul(r, pi0, b01)
		} else {
			addVecMul(r, level(l-1), a0)
		}
		addVecMul(r, level(l), a1)
		addVecMul(r, level(l+1), a2)
		if err := residualSmall(fmt.Sprintf("level %d", l), r, rtol); err != nil {
			return err
		}
	}
	return nil
}

// assembleTruncated builds the explicit generator of the chain cut at
// two queue levels (boundary + levels 1 and 2, arrivals suppressed at
// the top) so the block structure can be validated as a matrix:
//
//	Q = [ B00   B01   0      ]
//	    [ B10   A1    A0     ]
//	    [ 0     A2    A1+ΛI  ]
func assembleTruncated(p Params) *linalg.Matrix {
	a0, a1, a2, b00, b01, b10 := blocks(p)
	d := p.R + 1
	d0 := 2*p.R + 1
	lam := p.TotalArrival()
	q := linalg.NewMatrix(d0+2*d, d0+2*d)
	copyBlock(q, b00, 0, 0)
	copyBlock(q, b01, 0, d0)
	copyBlock(q, b10, d0, 0)
	copyBlock(q, a1, d0, d0)
	copyBlock(q, a0, d0, d0+d)
	copyBlock(q, a2, d0+d, d0)
	dTop := a1.Clone()
	for i := 0; i < d; i++ {
		dTop.Add(i, i, lam)
	}
	copyBlock(q, dTop, d0+d, d0+d)
	return q
}

func copyBlock(dst, src *linalg.Matrix, row, col int) {
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			dst.Set(row+i, col+j, src.At(i, j))
		}
	}
}

// addVecMul accumulates x·m into dst; a nil x contributes nothing
// (levels past the materialized ladder).
func addVecMul(dst, x []float64, m *linalg.Matrix) {
	if x == nil {
		return
	}
	for j := 0; j < m.Cols; j++ {
		s := 0.0
		for i := 0; i < m.Rows; i++ {
			s += x[i] * m.At(i, j)
		}
		dst[j] += s
	}
}

func residualSmall(eq string, r []float64, tol float64) error {
	for j, v := range r {
		if math.IsNaN(v) || v > tol || v < -tol {
			return invariant.Errorf("markov",
				"π·Q residual of %s equation, component %d, is %g (tolerance %g)", eq, j, v, tol)
		}
	}
	return nil
}
