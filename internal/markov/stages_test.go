package markov

import (
	"fmt"
	"math"

	"rsin/internal/invariant"
	"rsin/internal/linalg"
)

// The paper's iterative stage method, kept as a test oracle: it solves
// the same chain as SolveMatrixGeometric, the production solver, and
// the tests hold the two to the paper's four-digit agreement.

// SolveStages implements the paper's iterative solution procedure
// (Section III): place the elementary states at stage q+1 (treating the
// probabilities above it as zero), solve the finite system, and repeat
// for increasing q until the delay estimate stabilizes. The paper notes
// that there is "no good method for choosing q" and stops when d stops
// improving; we double q from 2 and stop when successive estimates
// agree to 10 significant digits.
//
// For each fixed q the finite system is solved by the stable
// block-banded elimination (the same computation as the paper's
// cross-check that solves the (r+1)(q+1) balance equations directly).
// The literal downward stage recursion of Eq. (2) is available as
// SolveStagesAt; it reproduces the paper's observation that raising q
// beyond a point exhausts machine precision, because the singular
// down-block A2 injects spurious modes that grow without bound in the
// downward direction.
func SolveStages(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if !p.Stable() {
		return Result{}, ErrUnstable
	}
	if linalg.NearZero(p.Lambda, 0) {
		return emptyResult(p), nil
	}
	const relTol = 1e-10
	var prev Result
	havePrev := false
	for q := 2; q <= 1<<21; q *= 2 {
		res, err := solveTruncatedAt(p, q)
		if err != nil {
			return Result{}, err
		}
		if havePrev && math.Abs(res.Delay-prev.Delay) <= relTol*math.Max(math.Abs(res.Delay), math.Abs(prev.Delay)) {
			return res, nil
		}
		prev, havePrev = res, true
	}
	return prev, nil
}

// SolveStagesAt runs one pass of the paper's procedure in its literal
// form, with elementary states placed at stage q+1: every lower stage is
// expressed linearly in the elementary vector via the downward
// recursion Λ·π_{i−1} = −π_i·A1 − π_{i+1}·A2 (possible because the
// up-block Λ·I is invertible while the down-block A2 is singular), and
// the system is closed with the level-0/level-1 boundary balances plus
// normalization.
//
// This literal formulation is numerically delicate: the singular A2
// contributes modes that explode in the downward direction, so raising q
// improves accuracy only until float64 precision is exhausted (typically
// q of a few tens), after which estimates degrade — exactly the
// precision ceiling the paper describes. It is exposed for the
// convergence study in the tests; use SolveStages for reliable answers.
func SolveStagesAt(p Params, q int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if !p.Stable() {
		return Result{}, ErrUnstable
	}
	if linalg.NearZero(p.Lambda, 0) {
		return emptyResult(p), nil
	}
	return solveStagesAt(p, q)
}

func solveStagesAt(p Params, q int) (Result, error) {
	if q < 1 {
		q = 1
	}
	_, a1, a2, b00, b01, b10 := blocks(p)
	d := p.R + 1
	d0 := 2*p.R + 1
	lam := p.TotalArrival()
	if linalg.NearZero(lam, 0) {
		// Callers handle Lambda == 0 via emptyResult before reaching the
		// recursion, which divides stage blocks by lam.
		return Result{}, fmt.Errorf("markov: stage recursion requires a positive arrival rate")
	}

	// m[l] maps the elementary vector x to stage l+1: π_{l+1} = x·m[l].
	// m[q] = I (π_{q+1} = x), stage q+2 ≡ 0.
	m := make([]*linalg.Matrix, q+1)
	m[q] = linalg.Identity(d)
	above := linalg.NewMatrix(d, d) // M for stage q+2
	for l := q + 1; l >= 2; l-- {
		cur := m[l-1]
		lower := linalg.Mul(cur, a1).AddM(linalg.Mul(above, a2)).Scale(-1 / lam)
		m[l-2] = lower
		above = cur
		if bad := maxAbs(lower); math.IsInf(bad, 0) || math.IsNaN(bad) || bad > 1e280 {
			return Result{}, fmt.Errorf("markov: stage recursion overflowed at q=%d (precision exhausted)", q)
		}
	}

	// Unknowns: y = [π_0 (d0) | x (d)]. Equations (as columns of G):
	//   level-0 balance: π_0·B00 + x·M_1·B10 = 0          (d0 columns)
	//   level-1 balance: π_0·B01 + x·(M_1·A1 + M_2·A2) = 0 (d columns)
	// with the first column replaced by the normalization
	//   π_0·1 + x·(Σ_l M_l)·1 = 1.
	g := linalg.NewMatrix(d0+d, d0+d)
	for i := 0; i < d0; i++ {
		for j := 0; j < d0; j++ {
			g.Set(i, j, b00.At(i, j))
		}
		for j := 0; j < d; j++ {
			g.Set(i, d0+j, b01.At(i, j))
		}
	}
	m1b10 := linalg.Mul(m[0], b10)
	// π_1 = x·m[0], π_2 = x·m[1] (m[1] exists because q ≥ 1).
	var lvl1 *linalg.Matrix
	if len(m) >= 2 {
		lvl1 = linalg.Mul(m[0], a1).AddM(linalg.Mul(m[1], a2))
	} else {
		lvl1 = linalg.Mul(m[0], a1)
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d0; j++ {
			g.Set(d0+i, j, m1b10.At(i, j))
		}
		for j := 0; j < d; j++ {
			g.Set(d0+i, d0+j, lvl1.At(i, j))
		}
	}
	// Normalization column.
	sumM := linalg.NewMatrix(d, d)
	for _, mat := range m {
		sumM.AddM(mat)
	}
	sumMOnes := make([]float64, d) // sumM·1
	for i := range sumMOnes {
		for j := 0; j < d; j++ {
			sumMOnes[i] += sumM.At(i, j)
		}
	}
	for i := 0; i < d0; i++ {
		g.Set(i, 0, 1)
	}
	for i := 0; i < d; i++ {
		g.Set(d0+i, 0, sumMOnes[i])
	}
	gt := transpose(g)
	rhs := make([]float64, d0+d)
	rhs[0] = 1
	y, err := linalg.SolveLinear(gt, rhs)
	if err != nil {
		return Result{}, fmt.Errorf("markov: stage boundary solve failed at q=%d: %w", q, err)
	}
	pi0 := y[:d0]
	x := y[d0:]

	levels := make([][]float64, q+1)
	for l, mat := range m {
		levels[l] = linalg.VecMul(x, mat)
	}
	res := metricsFromDistribution(p, pi0, levels)
	if math.IsNaN(res.Delay) || res.Delay < 0 {
		return Result{}, fmt.Errorf("markov: stage solve lost precision at q=%d", q)
	}
	if invariant.Enabled() {
		if verr := verifyLiteral(p, pi0, levels); verr != nil {
			return Result{}, verr
		}
	}
	return res, nil
}

// maxAbs returns the largest absolute element value of m.
func maxAbs(m *linalg.Matrix) float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// verifyLiteral is verifySolution for the paper's literal downward
// recursion, which imposes the interior balance equations by
// construction — even on a numerically ruined answer — and never
// imposes the top one, whose residual IS the truncation error. Only
// the generator and distribution checks are meaningful, with a loose
// tolerance, because the recursion deliberately trades precision for
// fidelity to the paper's Eq. (4)–(7) procedure.
func verifyLiteral(p Params, pi0 []float64, levels [][]float64) error {
	return verifyDistribution(p, pi0, levels, 1e-6)
}
