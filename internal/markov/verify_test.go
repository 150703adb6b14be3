package markov

import (
	"errors"
	"math"
	"testing"

	"rsin/internal/invariant"
)

// TestVerifyRejectsNonFinite poisons stationary-distribution vectors
// with NaN/Inf and checks the verifier classifies the failure as an
// invariant violation instead of letting the poison propagate into
// reported metrics. The positive control — verification passing on real
// solutions — is exercised by every solver test, since
// enable_invariant_test.go turns checking on for the whole package.
func TestVerifyRejectsNonFinite(t *testing.T) {
	p := Params{P: 4, Lambda: 0.1, MuN: 1, MuS: 1, R: 2}
	d0 := 2*p.R + 1 // boundary vector length
	d := p.R + 1    // level vector length

	uniform := func(n int, total float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = total / float64(n)
		}
		return v
	}

	cases := []struct {
		name   string
		poison func(pi0 []float64, levels [][]float64)
	}{
		{"NaN in boundary vector", func(pi0 []float64, levels [][]float64) {
			pi0[0] = math.NaN()
		}},
		{"NaN in level vector", func(pi0 []float64, levels [][]float64) {
			levels[1][0] = math.NaN()
		}},
		{"+Inf in boundary vector", func(pi0 []float64, levels [][]float64) {
			pi0[d0-1] = math.Inf(1)
		}},
		{"-Inf in level vector", func(pi0 []float64, levels [][]float64) {
			levels[0][d-1] = math.Inf(-1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Split unit mass across the vectors so only the poison, not
			// the mass balance, can be blamed for the failure.
			pi0 := uniform(d0, 0.5)
			levels := [][]float64{uniform(d, 0.25), uniform(d, 0.25)}
			tc.poison(pi0, levels)
			err := verifySolution(p, pi0, levels)
			if err == nil {
				t.Fatal("verifySolution accepted a non-finite distribution")
			}
			var v *invariant.Violation
			if !errors.As(err, &v) {
				t.Errorf("error is %T (%v), want a classified *invariant.Violation", err, err)
			}
		})
	}
}

// TestResidualSmallRejectsNaN checks the residual gate directly: NaN
// components must fail even though NaN compares false against any
// tolerance bound.
func TestResidualSmallRejectsNaN(t *testing.T) {
	err := residualSmall("test", []float64{0, math.NaN()}, 1e-8)
	if err == nil {
		t.Fatal("residualSmall accepted a NaN residual component")
	}
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Errorf("error is %T, want *invariant.Violation", err)
	}
	if err := residualSmall("test", []float64{1e-9, -1e-9}, 1e-8); err != nil {
		t.Errorf("residual within tolerance rejected: %v", err)
	}
}
