package markov

import (
	"fmt"
	"math"

	"rsin/internal/invariant"
	"rsin/internal/linalg"
)

// topKind tells the verifier how a solver treated the top of the level
// ladder, which decides which balance equations its solution can be
// held to. SolveMatrixGeometric is the production solver; the truncated
// and literal kinds belong to the test oracles (stages_test.go,
// truncated_test.go), which run the same verifier.
type topKind int

const (
	// topGeometric: the level list is a materialized geometric tail cut
	// off below 1e-16 mass. All equations hold against the untruncated
	// blocks except the final level's, whose dropped π_{L+1}·A2 term is
	// bounded by the cut mass; the verifier checks levels 1..L−1.
	topGeometric topKind = iota
	// topTruncated: the solution solves the truncated generator whose
	// top local block is A1 + ΛI (arrivals suppressed), so every
	// equation is checked, the top one against that block.
	topTruncated
	// topLiteral: the paper's literal downward recursion imposes the
	// interior equations by construction — even on a numerically ruined
	// answer — and never imposes the top one, whose residual IS the
	// truncation error. Only the distribution checks are meaningful,
	// with a loose tolerance, because the recursion deliberately trades
	// precision for fidelity to the paper's Eq. (4)–(7) procedure.
	topLiteral
)

// verifySolution checks the structural invariants of a computed
// stationary distribution: the rate blocks assemble into a valid CTMC
// generator, π is a probability distribution (entries ≥ 0 up to noise,
// Σπ = 1), and the π·Q residual of every checkable balance equation
// vanishes within a rate-scaled tolerance.
func verifySolution(p Params, pi0 []float64, levels [][]float64, top topKind) error {
	a0, a1, a2, b00, b01, b10 := blocks(p)
	d := p.R + 1
	lam := p.TotalArrival()
	scale := 1.0
	if s := lam + p.MuN + float64(p.R)*p.MuS; s > scale {
		scale = s
	}

	if err := invariant.Generator("markov", assembleTruncated(p), 1e-9*scale); err != nil {
		return err
	}

	flat := append([]float64(nil), pi0...)
	for _, pl := range levels {
		flat = append(flat, pl...)
	}
	tol := 1e-8
	if top == topLiteral {
		tol = 1e-6
	}
	if err := invariant.Distribution("markov", flat, tol); err != nil {
		return err
	}
	if top == topLiteral {
		return nil
	}

	rtol := 1e-8 * scale
	L := len(levels)
	level := func(l int) []float64 {
		if l >= 1 && l <= L {
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

	topLevel := L
	if top == topGeometric {
		topLevel = L - 1
	}
	for l := 1; l <= topLevel; l++ {
		r := make([]float64, d)
		if l == 1 {
			addVecMul(r, pi0, b01)
		} else {
			addVecMul(r, level(l-1), a0)
		}
		local := a1
		if l == L && top == topTruncated {
			local = a1.Clone()
			for i := 0; i < d; i++ {
				local.Add(i, i, lam)
			}
		}
		addVecMul(r, level(l), local)
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
