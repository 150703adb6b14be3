// Package workload builds the parameter sweeps behind the paper's
// evaluation. Every figure in the paper plots normalized delay against
// the traffic intensity ρ of a hypothetical reference system (one bus
// of rate p·μn, one resource of rate R·μs), so experiment code works in
// ρ-space and converts to per-processor arrival rates here. Arrivals
// themselves are drawn inside the simulator (internal/sim, rng.Exp).
package workload

import (
	"fmt"

	"rsin/internal/queueing"
)

// Point is one operating point of a sweep.
type Point struct {
	Rho    float64 // paper's traffic intensity
	Lambda float64 // per-processor arrival rate achieving Rho
}

// Sweep converts a grid of traffic intensities to per-processor arrival
// rates for a system of p processors and totalRes resources with rates
// muN, muS.
func Sweep(p int, muN, muS float64, totalRes int, rhos []float64) []Point {
	pts := make([]Point, len(rhos))
	for i, rho := range rhos {
		pts[i] = Point{
			Rho:    rho,
			Lambda: queueing.LambdaForIntensity(rho, p, muN, muS, totalRes),
		}
	}
	return pts
}

// RhoGrid returns an evenly spaced grid of traffic intensities in
// [lo, hi] with n points, the x-axes of Figs. 4–13.
func RhoGrid(lo, hi float64, n int) []float64 {
	if n <= 0 || hi < lo {
		panic(fmt.Sprintf("workload: invalid grid [%g,%g] n=%d", lo, hi, n))
	}
	if n == 1 {
		return []float64{lo}
	}
	g := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range g {
		g[i] = lo + float64(i)*step
	}
	return g
}

// PaperRhoGrid is the default grid used to regenerate the paper's
// figures: light load through near saturation.
func PaperRhoGrid() []float64 {
	return RhoGrid(0.1, 0.9, 9)
}
