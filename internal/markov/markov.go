// Package markov implements the continuous-time Markov-chain analysis of
// the single-shared-bus RSIN from Section III of the paper.
//
// The chain's states are N[l, n, s] where l ≥ 0 is the number of queued
// tasks, n ∈ {0,1} is the number of tasks being transmitted on the bus,
// and s ∈ {0..r} is the number of busy resources (paper Fig. 3).
// Tasks arrive in the aggregate at rate Λ = p·λ, transmission completes
// at rate μn, and each busy resource completes at rate μs. Because a
// queued task starts transmitting the moment both the bus and a free
// resource are available, the only reachable states with l ≥ 1 are
// (n=1, s ∈ 0..r−1) and (n=0, s=r): the bus is forced idle exactly when
// every resource is busy.
//
// The chain is a quasi-birth-death (QBD) process: levels l ≥ 1 all share
// the same (r+1)-state structure with identical transition blocks, and
// level 0 is a boundary level with 2r+1 states. SolveMatrixGeometric
// solves it exactly: π_{l+1} = π_l·R. The tests cross-validate it
// against two independent oracles kept in _test.go files, mirroring
// the paper's own four-digit cross-check between its iterative
// procedure and a direct balance-equation solve: a direct solve of the
// generator truncated at a queue level (block-tridiagonal backward
// recursion), and the paper's iterative stage procedure — pick
// elementary states at a high stage, express lower stages in terms of
// higher ones (possible because the up-block Λ·I is trivially
// invertible while the down-block is singular), and grow the stage
// count until the delay estimate stabilizes.
package markov

import (
	"errors"
	"fmt"

	"rsin/internal/linalg"
)

// ErrUnstable is returned when the offered load exceeds the capacity of
// the bus or of the resource pool, so the queue has no steady state.
var ErrUnstable = errors.New("markov: system is unstable")

// Params describes one single-shared-bus subsystem: p processors
// multiplexed onto one bus feeding r identical resources.
type Params struct {
	P      int     // number of processors sharing the bus
	Lambda float64 // per-processor task arrival rate λ
	MuN    float64 // transmission (bus) rate μn
	MuS    float64 // resource service rate μs
	R      int     // number of resources on the bus
}

// Validate checks the parameters for basic sanity.
func (p Params) Validate() error {
	switch {
	case p.P <= 0:
		return fmt.Errorf("markov: P must be positive, got %d", p.P)
	case p.R <= 0:
		return fmt.Errorf("markov: R must be positive, got %d", p.R)
	case p.Lambda < 0:
		return fmt.Errorf("markov: Lambda must be non-negative, got %g", p.Lambda)
	case p.MuN <= 0 || p.MuS <= 0:
		return fmt.Errorf("markov: MuN and MuS must be positive, got %g, %g", p.MuN, p.MuS)
	}
	return nil
}

// TotalArrival returns the aggregate arrival rate Λ = p·λ.
func (p Params) TotalArrival() float64 { return float64(p.P) * p.Lambda }

// Stable reports whether the chain is positive recurrent, i.e. the
// aggregate arrival rate is below the true saturation throughput
// Capacity(μn, μs, r). Note that the capacity is strictly below
// min(μn, r·μs): the bus is forced idle whenever every resource is
// busy, which wastes bus capacity (the coupling the paper's Fig. 3
// boundary states capture).
func (p Params) Stable() bool {
	return p.TotalArrival() < Capacity(p.MuN, p.MuS, p.R)-1e-12
}

// Capacity returns the saturation throughput of a single shared bus
// (rate muN) feeding r resources (rate muS each) with no buffering at
// the resources. It is the mean downward drift of the queue-level QBD
// under saturation: with π̂ the stationary distribution of the
// within-level generator A1+A2 (taken at Λ=0), the capacity is
// π̂·A2·1 — the rate at which queued tasks begin transmission.
func Capacity(muN, muS float64, r int) float64 {
	p := Params{P: 1, Lambda: 0, MuN: muN, MuS: muS, R: r}
	_, a1, a2, _, _, _ := blocks(p)
	// With Λ=0, A = A1 + A2 is a proper generator on the r+1
	// saturated-phase states.
	a := a1.Clone().AddM(a2)
	pihat, err := nullRowVector(a)
	if err != nil {
		// The phase process is irreducible for all valid parameters;
		// failure here indicates numerically degenerate rates.
		return 0
	}
	d := r + 1
	cap := 0.0
	for i := 0; i < d; i++ {
		row := 0.0
		for j := 0; j < d; j++ {
			row += a2.At(i, j)
		}
		cap += pihat[i] * row
	}
	return cap
}

// Result carries the solved steady-state metrics of the bus subsystem.
type Result struct {
	Delay           float64 // mean queueing delay d (time queued before transmission starts), Eq. (1)
	NormalizedDelay float64 // d·μs, the paper's y-axis
	MeanQueue       float64 // mean number of queued tasks E[l]
	BusUtilization  float64 // P(n = 1)
	ResourceUtil    float64 // E[s] / r
	PAllBusy        float64 // P(s = r): probability every resource is busy
	Levels          int     // queue levels materialized by the solver
}

// Level-(l≥1) state indexing: indices 0..r−1 are (n=1, s=index); index r
// is (n=0, s=r). Level-0 state indexing: indices 0..r are (n=0, s=index);
// indices r+1..2r are (n=1, s=index−r−1).

// blocks builds the QBD transition-rate blocks for the chain.
//
//	a0: level l → l+1 (arrivals), (r+1)×(r+1)
//	a1: within level l ≥ 1, including the diagonal outflow, (r+1)×(r+1)
//	a2: level l → l−1 for l ≥ 2, (r+1)×(r+1)
//	b00: within level 0 (incl. diagonal), (2r+1)×(2r+1)
//	b01: level 0 → level 1, (2r+1)×(r+1)
//	b10: level 1 → level 0, (r+1)×(2r+1)
func blocks(p Params) (a0, a1, a2, b00, b01, b10 *linalg.Matrix) {
	r := p.R
	lam := p.TotalArrival()
	d := r + 1
	d0 := 2*r + 1

	a0 = linalg.NewMatrix(d, d)
	a1 = linalg.NewMatrix(d, d)
	a2 = linalg.NewMatrix(d, d)
	b00 = linalg.NewMatrix(d0, d0)
	b01 = linalg.NewMatrix(d0, d)
	b10 = linalg.NewMatrix(d, d0)

	// Levels l ≥ 1. States: u_s = (n=1, s) for s = 0..r−1 at index s,
	// and v = (n=0, s=r) at index r.
	for s := 0; s < r; s++ {
		// Arrival: stays at the same in-level index one level up.
		a0.Set(s, s, lam)
		out := lam
		// Transmission completion at rate μn: the task in transit
		// occupies resource s+1. If a resource remains free the next
		// queued task starts transmitting (down one level); otherwise
		// the bus idles with the queue intact (within level, to v).
		if s < r-1 {
			a2.Set(s, s+1, p.MuN)
		} else {
			a1.Set(s, r, p.MuN)
		}
		out += p.MuN
		// Service completion at rate s·μs frees a resource; the bus is
		// already busy so the queue is unchanged (within level).
		if s > 0 {
			a1.Set(s, s-1, float64(s)*p.MuS)
			out += float64(s) * p.MuS
		}
		a1.Add(s, s, -out)
	}
	// v = (n=0, s=r): bus forced idle, all resources busy.
	a0.Set(r, r, lam)
	// A service completion frees a resource and the head-of-queue task
	// immediately starts transmitting: down one level to u_{r−1}.
	a2.Set(r, r-1, float64(r)*p.MuS)
	a1.Add(r, r, -(lam + float64(r)*p.MuS))

	// Level 0. (n=0, s) at index s for s = 0..r; (n=1, s) at index
	// r+1+s for s = 0..r−1.
	idle := func(s int) int { return s }
	tx := func(s int) int { return r + 1 + s }
	for s := 0; s <= r; s++ {
		out := 0.0
		if s < r {
			// An arrival starts transmitting immediately.
			b00.Set(idle(s), tx(s), lam)
		} else {
			// All resources busy: the arrival queues (level 1, state v).
			b01.Set(idle(s), r, lam)
		}
		out += lam
		if s > 0 {
			b00.Set(idle(s), idle(s-1), float64(s)*p.MuS)
			out += float64(s) * p.MuS
		}
		b00.Add(idle(s), idle(s), -out)
	}
	for s := 0; s < r; s++ {
		out := lam
		// An arrival during transmission queues: level 1, state u_s.
		b01.Set(tx(s), s, lam)
		// Transmission completes with an empty queue: bus goes idle.
		b00.Set(tx(s), idle(s+1), p.MuN)
		out += p.MuN
		if s > 0 {
			b00.Set(tx(s), tx(s-1), float64(s)*p.MuS)
			out += float64(s) * p.MuS
		}
		b00.Add(tx(s), tx(s), -out)
	}

	// Level 1 → level 0.
	for s := 0; s < r; s++ {
		if s < r-1 {
			// Transmission completes; the single queued task starts
			// transmitting toward resource occupancy s+1.
			b10.Set(s, tx(s+1), p.MuN)
		}
		// s = r−1 case stays within level 1 (handled by a1).
	}
	// v at level 1: a service completion lets the queued task transmit.
	b10.Set(r, tx(r-1), float64(p.R)*p.MuS)

	return a0, a1, a2, b00, b01, b10
}

// levelMass returns the total probability of a level-(l≥1) vector.
func levelMass(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// metricsFromDistribution assembles a Result from the boundary vector
// pi0, the per-level vectors pi[l] (l ≥ 1), and the chain parameters.
// The slice levels holds π_1, π_2, ... in order.
func metricsFromDistribution(p Params, pi0 []float64, levels [][]float64) Result {
	r := p.R
	var res Result
	// E[l] and the delay via Little's formula (paper Eq. (1)).
	for i, pl := range levels {
		res.MeanQueue += float64(i+1) * levelMass(pl)
	}
	lam := p.TotalArrival()
	if lam > 0 {
		res.Delay = res.MeanQueue / lam
	}
	res.NormalizedDelay = res.Delay * p.MuS

	// Bus utilization: P(n=1) = level-0 transmitting states + all u_s.
	for s := 0; s < r; s++ {
		res.BusUtilization += pi0[r+1+s]
	}
	for _, pl := range levels {
		for s := 0; s < r; s++ {
			res.BusUtilization += pl[s]
		}
	}
	// Resource utilization and P(all busy).
	es := 0.0
	for s := 0; s <= r; s++ {
		es += float64(s) * pi0[s]
	}
	for s := 0; s < r; s++ {
		es += float64(s) * pi0[r+1+s]
	}
	res.PAllBusy += pi0[r]
	for _, pl := range levels {
		for s := 0; s < r; s++ {
			es += float64(s) * pl[s]
		}
		es += float64(r) * pl[r]
		res.PAllBusy += pl[r]
	}
	res.ResourceUtil = es / float64(r)
	res.Levels = len(levels) + 1
	return res
}

// nullRowVector finds a non-trivial row vector x with x·M = 0,
// normalized so its entries sum to 1 before downstream rescaling. It
// replaces the first balance equation with Σx = 1 (valid because a
// generator's columns are linearly dependent).
func nullRowVector(m *linalg.Matrix) ([]float64, error) {
	n := m.Rows
	g := m.Clone()
	for i := 0; i < n; i++ {
		g.Set(i, 0, 1)
	}
	gt := transpose(g)
	rhs := make([]float64, n)
	rhs[0] = 1
	x, err := linalg.SolveLinear(gt, rhs)
	if err != nil {
		return nil, fmt.Errorf("markov: boundary nullspace solve failed: %w", err)
	}
	return x, nil
}
