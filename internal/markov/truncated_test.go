package markov

import (
	"fmt"

	"rsin/internal/invariant"
	"rsin/internal/linalg"
)

// The block-tridiagonal truncated solve, kept as a test oracle beside
// SolveStages: a third, independent solution of the chain that
// SolveMatrixGeometric solves in production.

// SolveTruncated solves the stationary distribution of the bus chain
// directly from the balance equations of the generator truncated at
// maxLevels queue levels (arrivals are suppressed at the top level so
// the truncated generator remains conservative). It uses the standard
// backward block-tridiagonal recursion: S_{L−1} = −U·D_L⁻¹ and
// S_{l−1} = −U·(D_l + S_l·L_{l+1})⁻¹, then π_{l+1} = π_l·S_l.
//
// maxLevels ≤ 0 selects an automatic truncation level, grown until the
// probability mass at the top level is below 1e−14.
func SolveTruncated(p Params, maxLevels int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if !p.Stable() {
		return Result{}, ErrUnstable
	}
	if linalg.NearZero(p.Lambda, 0) {
		return emptyResult(p), nil
	}
	if maxLevels > 0 {
		return solveTruncatedAt(p, maxLevels)
	}
	for levels := 64; ; levels *= 2 {
		res, topMass, err := solveTruncatedMass(p, levels)
		if err != nil {
			return Result{}, err
		}
		if topMass < 1e-14 || levels >= 1<<20 {
			return res, nil
		}
	}
}

func solveTruncatedAt(p Params, levels int) (Result, error) {
	res, _, err := solveTruncatedMass(p, levels)
	return res, err
}

func solveTruncatedMass(p Params, maxLevel int) (Result, float64, error) {
	if maxLevel < 2 {
		maxLevel = 2
	}
	a0, a1, a2, b00, b01, b10 := blocks(p)
	d := p.R + 1
	lam := p.TotalArrival()

	// Top-level local block: a1 with the arrival outflow removed.
	dTop := a1.Clone()
	for i := 0; i < d; i++ {
		dTop.Add(i, i, lam)
	}

	// Backward sweep computing S_l with π_{l+1} = π_l·S_l for
	// l = maxLevel−1 .. 1, plus S_0 mapping π_0 → π_1.
	s := make([]*linalg.Matrix, maxLevel)
	luTop, err := linalg.Factor(dTop)
	if err != nil {
		return Result{}, 0, fmt.Errorf("markov: top block singular: %w", err)
	}
	// π_{L−1}·U + π_L·D_L = 0  ⇒  S_{L−1} = −U·D_L⁻¹, as row-vector
	// relations: π_L = −π_{L−1}·U·D_L⁻¹.
	s[maxLevel-1] = negRightSolve(a0, luTop)
	for l := maxLevel - 1; l >= 2; l-- {
		m := linalg.Mul(s[l], a2).AddM(a1.Clone())
		lu, err := linalg.Factor(m)
		if err != nil {
			return Result{}, 0, fmt.Errorf("markov: block at level %d singular: %w", l, err)
		}
		s[l-1] = negRightSolve(a0, lu)
	}
	// Level 1 uses the boundary up-block b01 (2r+1 × r+1).
	m1 := linalg.Mul(s[1], a2).AddM(a1.Clone())
	lu1, err := linalg.Factor(m1)
	if err != nil {
		return Result{}, 0, fmt.Errorf("markov: level-1 block singular: %w", err)
	}
	s[0] = negRightSolve(b01, lu1)

	// Level-0 balance: π_0·(B00 + S_0·B10) = 0, normalized afterwards.
	m0 := linalg.Mul(s[0], b10).AddM(b00.Clone())
	pi0, err := nullRowVector(m0)
	if err != nil {
		return Result{}, 0, err
	}

	levels := make([][]float64, 0, maxLevel)
	cur := linalg.VecMul(pi0, s[0])
	levels = append(levels, cur)
	for l := 1; l < maxLevel; l++ {
		cur = linalg.VecMul(cur, s[l])
		levels = append(levels, cur)
	}
	// Normalize.
	total := 0.0
	for _, x := range pi0 {
		total += x
	}
	for _, pl := range levels {
		total += levelMass(pl)
	}
	for i := range pi0 {
		pi0[i] /= total
	}
	for _, pl := range levels {
		for i := range pl {
			pl[i] /= total
		}
	}
	if invariant.Enabled() {
		if verr := verifyTruncated(p, pi0, levels); verr != nil {
			return Result{}, 0, verr
		}
	}
	res := metricsFromDistribution(p, pi0, levels)
	return res, levelMass(levels[len(levels)-1]), nil
}

// negRightSolve returns −U·M⁻¹ given the factorization of M, i.e. it
// solves X·M = −U for X row by row via Mᵀ (using M's LU on transposed
// sides): X = −U·M⁻¹ computed as (M⁻¹)ᵀ applied to U's rows.
func negRightSolve(u *linalg.Matrix, luM *linalg.LU) *linalg.Matrix {
	inv := luM.Inverse()
	return linalg.Mul(u, inv).Scale(-1)
}

// verifyTruncated is verifySolution for SolveTruncated's answer, which
// solves the truncated generator whose top local block is A1 + ΛI
// (arrivals suppressed): every balance equation is checked, the top
// one against that block.
func verifyTruncated(p Params, pi0 []float64, levels [][]float64) error {
	if err := verifyDistribution(p, pi0, levels, 1e-8); err != nil {
		return err
	}
	L := len(levels)
	if err := verifyBalance(p, pi0, levels, L-1); err != nil {
		return err
	}
	a0, a1, _, _, b01, _ := blocks(p)
	top := a1.Clone()
	for i := 0; i <= p.R; i++ {
		top.Add(i, i, p.TotalArrival())
	}
	r := make([]float64, p.R+1)
	if L == 1 {
		addVecMul(r, pi0, b01)
	} else {
		addVecMul(r, levels[L-2], a0)
	}
	addVecMul(r, levels[L-1], top)
	return residualSmall(fmt.Sprintf("level %d", L), r, 1e-8*rateScale(p))
}
