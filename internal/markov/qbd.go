package markov

import (
	"fmt"
	"math"

	"rsin/internal/invariant"
	"rsin/internal/linalg"
)

// rIterMax bounds the fixed-point iteration computing the rate matrix R.
const rIterMax = 200000

// rTol is the convergence tolerance for the R iteration. The natural
// fixed-point iteration converges linearly at rate ≈ sp(R); near
// machine epsilon the iterates stagnate, so the tolerance must sit
// slightly above float64 cancellation noise.
const rTol = 1e-13

// SolveMatrixGeometric computes the exact stationary distribution of the
// bus chain using the matrix-geometric method: for levels l ≥ 1,
// π_{l+1} = π_l·R where R is the minimal non-negative solution of
// A0 + R·A1 + R²·A2 = 0. The boundary probabilities (π_0, π_1) are then
// obtained from the level-0 and level-1 balance equations plus
// normalization π_0·1 + π_1·(I−R)⁻¹·1 = 1.
func SolveMatrixGeometric(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if !p.Stable() {
		return Result{}, ErrUnstable
	}
	if linalg.NearZero(p.Lambda, 0) {
		return emptyResult(p), nil
	}
	a0, a1, a2, b00, b01, b10 := blocks(p)
	d := p.R + 1
	d0 := 2*p.R + 1

	r, err := solveR(a0, a1, a2)
	if err != nil {
		return Result{}, err
	}

	// (I − R)⁻¹ for the normalization and the mean-queue closed forms.
	iMinusR := linalg.Identity(d).SubM(r.Clone())
	luIR, err := linalg.Factor(iMinusR)
	if err != nil {
		return Result{}, fmt.Errorf("markov: I-R singular (spectral radius 1?): %w", err)
	}
	ones := make([]float64, d)
	for i := range ones {
		ones[i] = 1
	}
	sumGeo := luIR.Solve(ones) // (I−R)⁻¹·1

	// Boundary system: x = [π_0 | π_1] satisfies x·G = 0 with
	//   G = [ B00              B01            ]
	//       [ B10              A1 + R·A2      ]
	// Replace the first equation (column) with the normalization.
	g := linalg.NewMatrix(d0+d, d0+d)
	for i := 0; i < d0; i++ {
		for j := 0; j < d0; j++ {
			g.Set(i, j, b00.At(i, j))
		}
		for j := 0; j < d; j++ {
			g.Set(i, d0+j, b01.At(i, j))
		}
	}
	local := linalg.Mul(r, a2).AddM(a1)
	for i := 0; i < d; i++ {
		for j := 0; j < d0; j++ {
			g.Set(d0+i, j, b10.At(i, j))
		}
		for j := 0; j < d; j++ {
			g.Set(d0+i, d0+j, local.At(i, j))
		}
	}
	// Column 0 := normalization weights.
	for i := 0; i < d0; i++ {
		g.Set(i, 0, 1)
	}
	for i := 0; i < d; i++ {
		g.Set(d0+i, 0, sumGeo[i])
	}
	// Solve xᵀ·G = e0ᵀ  ⇔  Gᵀ·x = e0.
	gt := transpose(g)
	rhs := make([]float64, d0+d)
	rhs[0] = 1
	x, err := linalg.SolveLinear(gt, rhs)
	if err != nil {
		return Result{}, fmt.Errorf("markov: boundary solve failed: %w", err)
	}
	pi0 := x[:d0]
	pi1 := x[d0:]

	// Materialize levels until the residual mass is negligible, so the
	// generic metric assembly can be shared across solvers. The closed
	// forms E[l] = π_1·(I−R)⁻²·1 exist, but materializing keeps the three
	// solvers directly comparable; the geometric tail decays fast.
	levels := [][]float64{pi1}
	cur := pi1
	for {
		next := linalg.VecMul(cur, r)
		if levelMass(next) < 1e-16 || len(levels) > 500000 {
			break
		}
		levels = append(levels, next)
		cur = next
	}
	res := metricsFromDistribution(p, pi0, levels)

	// Replace the truncated-tail moments with the exact closed forms:
	// Σ_{l≥1} π_l·1 = π_1·(I−R)⁻¹·1 and Σ_{l≥1} l·π_l·1 = π_1·(I−R)⁻²·1.
	sumGeo2 := luIR.Solve(sumGeo) // (I−R)⁻²·1
	meanQ := 0.0
	for i := 0; i < d; i++ {
		meanQ += pi1[i] * sumGeo2[i]
	}
	res.MeanQueue = meanQ
	res.Delay = meanQ / p.TotalArrival()
	res.NormalizedDelay = res.Delay * p.MuS
	if invariant.Enabled() {
		if verr := verifySolution(p, pi0, levels); verr != nil {
			return Result{}, verr
		}
	}
	return res, nil
}

// solveR computes the minimal non-negative solution of
// A0 + R·A1 + R²·A2 = 0 by the natural fixed-point iteration
// R ← −(A0 + R²·A2)·A1⁻¹, which converges monotonically from R = 0 for
// stable QBDs.
func solveR(a0, a1, a2 *linalg.Matrix) (*linalg.Matrix, error) {
	d := a0.Rows
	luA1, err := linalg.Factor(a1)
	if err != nil {
		return nil, fmt.Errorf("markov: A1 singular: %w", err)
	}
	negInvA1 := luA1.Inverse().Scale(-1)
	r := linalg.NewMatrix(d, d)
	for iter := 0; iter < rIterMax; iter++ {
		r2a2 := linalg.Mul(linalg.Mul(r, r), a2)
		next := linalg.Mul(r2a2.AddM(a0), negInvA1)
		diff := 0.0
		for i := range next.Data {
			if dv := math.Abs(next.Data[i] - r.Data[i]); dv > diff {
				diff = dv
			}
		}
		r = next
		if diff < rTol {
			return r, nil
		}
	}
	return nil, fmt.Errorf("markov: R iteration did not converge in %d steps", rIterMax)
}

func transpose(m *linalg.Matrix) *linalg.Matrix {
	t := linalg.NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// emptyResult is the degenerate λ=0 steady state: the chain sits in
// N[0,0,0] with probability 1.
func emptyResult(p Params) Result {
	return Result{Levels: 1}
}
