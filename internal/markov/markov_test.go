package markov

import (
	"math"
	"testing"

	"rsin/internal/queueing"
)

func almostEqual(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"valid", Params{P: 4, Lambda: 0.1, MuN: 1, MuS: 1, R: 2}, true},
		{"zero processors", Params{P: 0, Lambda: 0.1, MuN: 1, MuS: 1, R: 2}, false},
		{"zero resources", Params{P: 4, Lambda: 0.1, MuN: 1, MuS: 1, R: 0}, false},
		{"negative lambda", Params{P: 4, Lambda: -1, MuN: 1, MuS: 1, R: 2}, false},
		{"zero muN", Params{P: 4, Lambda: 0.1, MuN: 0, MuS: 1, R: 2}, false},
		{"zero muS", Params{P: 4, Lambda: 0.1, MuN: 1, MuS: 0, R: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestStability(t *testing.T) {
	// Plentiful resources: capacity approaches μn = 1.
	if !(Params{P: 9, Lambda: 0.1, MuN: 1, MuS: 1, R: 10}).Stable() {
		t.Error("expected stable at Λ = 0.9 with 10 resources")
	}
	// Bus overload.
	if (Params{P: 20, Lambda: 0.1, MuN: 1, MuS: 1, R: 10}).Stable() {
		t.Error("expected unstable when Λ ≥ μn")
	}
	// Resource overload: Λ = 0.9 < μn but r·μs = 0.5.
	if (Params{P: 9, Lambda: 0.1, MuN: 10, MuS: 0.25, R: 2}).Stable() {
		t.Error("expected unstable when Λ ≥ r·μs")
	}
	// Coupling loss: with μn = μs = 1 and r = 2 the capacity is exactly
	// 0.8 < min(μn, r·μs) = 1 because the bus idles while both
	// resources are busy.
	if got := Capacity(1, 1, 2); !almostEqual(got, 0.8, 1e-9) {
		t.Errorf("Capacity(1,1,2) = %g, want 0.8", got)
	}
	if (Params{P: 16, Lambda: 0.05, MuN: 1, MuS: 1, R: 2}).Stable() {
		t.Error("expected critically loaded system (Λ = capacity) to be unstable")
	}
}

func TestCapacityLimits(t *testing.T) {
	// r = 1: the bus and resource alternate, so the capacity is the
	// harmonic composition 1/(1/μn + 1/μs).
	if got, want := Capacity(1, 10, 1), 1/(1+0.1); !almostEqual(got, want, 1e-9) {
		t.Errorf("Capacity(1,10,1) = %g, want %g", got, want)
	}
	// Many resources: capacity approaches the bus rate μn.
	if got := Capacity(1, 1, 64); got < 0.999 || got > 1 {
		t.Errorf("Capacity(1,1,64) = %g, want ≈ 1", got)
	}
	// Slow resources: capacity approaches r·μs.
	if got, want := Capacity(1000, 0.1, 4), 0.4; math.Abs(got-want) > 0.01 {
		t.Errorf("Capacity(1000,0.1,4) = %g, want ≈ %g", got, want)
	}
	// Capacity never exceeds either naive bound.
	for _, r := range []int{1, 2, 4, 8} {
		for _, ratio := range []float64{0.1, 1, 10} {
			c := Capacity(1, ratio, r)
			if c > 1 || c > float64(r)*ratio {
				t.Errorf("Capacity(1,%g,%d) = %g exceeds naive bound", ratio, r, c)
			}
		}
	}
}

func TestUnstableReturnsError(t *testing.T) {
	p := Params{P: 16, Lambda: 1, MuN: 1, MuS: 1, R: 4}
	if _, err := SolveMatrixGeometric(p); err != ErrUnstable {
		t.Errorf("SolveMatrixGeometric: got %v, want ErrUnstable", err)
	}
	if _, err := SolveTruncated(p, 0); err != ErrUnstable {
		t.Errorf("SolveTruncated: got %v, want ErrUnstable", err)
	}
	if _, err := SolveStages(p); err != ErrUnstable {
		t.Errorf("SolveStages: got %v, want ErrUnstable", err)
	}
}

func TestZeroLoad(t *testing.T) {
	p := Params{P: 16, Lambda: 0, MuN: 1, MuS: 1, R: 4}
	for name, f := range solvers() {
		res, err := f(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Delay != 0 || res.MeanQueue != 0 {
			t.Errorf("%s: zero load should give zero delay, got %+v", name, res)
		}
	}
}

func solvers() map[string]func(Params) (Result, error) {
	return map[string]func(Params) (Result, error){
		"matrix-geometric": SolveMatrixGeometric,
		"truncated":        func(p Params) (Result, error) { return SolveTruncated(p, 0) },
		"stages":           SolveStages,
	}
}

// TestSolversAgree mirrors the paper's check that the iterative stage
// procedure matches a direct balance-equation solve to four digits.
func TestSolversAgree(t *testing.T) {
	cases := []Params{
		{P: 4, Lambda: 0.05, MuN: 1, MuS: 0.5, R: 2},
		{P: 16, Lambda: 0.04, MuN: 1, MuS: 0.1, R: 32},
		{P: 16, Lambda: 0.05, MuN: 1, MuS: 1, R: 8},
		{P: 8, Lambda: 0.11, MuN: 1, MuS: 0.2, R: 16},
		{P: 1, Lambda: 0.3, MuN: 1, MuS: 1, R: 2},
		{P: 2, Lambda: 0.45, MuN: 1, MuS: 10, R: 1},
		{P: 16, Lambda: 0.058, MuN: 1, MuS: 0.1, R: 32}, // fairly heavy load
	}
	for _, p := range cases {
		ref, err := SolveMatrixGeometric(p)
		if err != nil {
			t.Fatalf("%+v: matrix-geometric: %v", p, err)
		}
		for name, f := range solvers() {
			res, err := f(p)
			if err != nil {
				t.Fatalf("%+v: %s: %v", p, name, err)
			}
			if !almostEqual(res.Delay, ref.Delay, 1e-4) {
				t.Errorf("%+v: %s delay %.8g != reference %.8g", p, name, res.Delay, ref.Delay)
			}
			if !almostEqual(res.BusUtilization, ref.BusUtilization, 1e-4) {
				t.Errorf("%+v: %s bus util %.8g != reference %.8g", p, name, res.BusUtilization, ref.BusUtilization)
			}
			if !almostEqual(res.ResourceUtil, ref.ResourceUtil, 1e-4) {
				t.Errorf("%+v: %s resource util %.8g != reference %.8g", p, name, res.ResourceUtil, ref.ResourceUtil)
			}
		}
	}
}

// TestDegenerateMM1 checks the paper's observation that with plentiful
// resources the bus is the only contention point and the system behaves
// as an M/M/1 queue with service rate μn.
func TestDegenerateMM1(t *testing.T) {
	p := Params{P: 16, Lambda: 0.05, MuN: 1.6, MuS: 5, R: 400}
	res, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := queueing.MM1WaitingTime(p.TotalArrival(), p.MuN)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Delay, want, 5e-3) {
		t.Errorf("delay %.6g, want M/M/1 Wq %.6g", res.Delay, want)
	}
}

// TestDegenerateMMr checks that with near-instant transmission the
// system behaves as an M/M/r queue on the resources.
func TestDegenerateMMr(t *testing.T) {
	p := Params{P: 16, Lambda: 0.05, MuN: 4000, MuS: 0.3, R: 4}
	res, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := queueing.MMcWaitingTime(p.TotalArrival(), p.MuS, p.R)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Delay, want, 5e-3) {
		t.Errorf("delay %.6g, want M/M/r Wq %.6g", res.Delay, want)
	}
}

func TestDelayIncreasesWithLoad(t *testing.T) {
	prev := -1.0
	for _, lam := range []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.055} {
		p := Params{P: 16, Lambda: lam, MuN: 1, MuS: 0.1, R: 32}
		res, err := SolveMatrixGeometric(p)
		if err != nil {
			t.Fatalf("λ=%g: %v", lam, err)
		}
		if res.Delay <= prev {
			t.Errorf("delay not increasing at λ=%g: %g <= %g", lam, res.Delay, prev)
		}
		prev = res.Delay
	}
}

func TestUtilizationMatchesFlowBalance(t *testing.T) {
	// In steady state the bus carries all traffic: P(n=1)·μn = Λ, and
	// resources likewise: E[s]·μs = Λ.
	p := Params{P: 16, Lambda: 0.03, MuN: 1, MuS: 0.1, R: 32}
	res, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	lam := p.TotalArrival()
	if got := res.BusUtilization * p.MuN; !almostEqual(got, lam, 1e-8) {
		t.Errorf("bus throughput %g, want Λ=%g", got, lam)
	}
	if got := res.ResourceUtil * float64(p.R) * p.MuS; !almostEqual(got, lam, 1e-8) {
		t.Errorf("resource throughput %g, want Λ=%g", got, lam)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	// Indirect check: the normalized metrics must be within [0, 1].
	// (Λ = 0.64 is below the true capacity 0.8 of this coupled system.)
	p := Params{P: 16, Lambda: 0.04, MuN: 1, MuS: 1, R: 2}
	for name, f := range solvers() {
		res, err := f(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range []float64{res.BusUtilization, res.ResourceUtil, res.PAllBusy} {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%s: probability metric out of range: %+v", name, res)
			}
		}
	}
}

// TestStagesConvergence exercises the paper's observation about its
// literal iterative procedure: precision improves as the elementary
// stage q is raised, up to a machine-precision ceiling.
func TestStagesConvergence(t *testing.T) {
	p := Params{P: 1, Lambda: 0.3, MuN: 1, MuS: 1, R: 2}
	ref, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	prevErr := math.Inf(1)
	for _, q := range []int{4, 8, 16} {
		res, err := SolveStagesAt(p, q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		e := math.Abs(res.Delay - ref.Delay)
		if e > prevErr*1.01 { // allow tiny numerical noise
			t.Errorf("stage error grew: q=%d err=%g prev=%g", q, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 1e-5*ref.Delay {
		t.Errorf("literal stage method at q=16 still off by %g (delay %g)", prevErr, ref.Delay)
	}
}

func TestR1SmallestSystem(t *testing.T) {
	// r = 1: with a single resource, v = (n=0, s=1) and u_0 = (n=1, s=0)
	// are the only per-level states. Cross-check against all solvers.
	p := Params{P: 2, Lambda: 0.2, MuN: 2, MuS: 1, R: 1}
	ref, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Delay <= 0 {
		t.Fatal("expected positive delay under load")
	}
	for name, f := range solvers() {
		res, err := f(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !almostEqual(res.Delay, ref.Delay, 1e-6) {
			t.Errorf("%s delay %g != %g", name, res.Delay, ref.Delay)
		}
	}
}

func TestNormalizedDelayDefinition(t *testing.T) {
	p := Params{P: 16, Lambda: 0.04, MuN: 1, MuS: 0.1, R: 32}
	res, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.NormalizedDelay, res.Delay*p.MuS, 1e-12) {
		t.Errorf("NormalizedDelay %g != Delay·μs %g", res.NormalizedDelay, res.Delay*p.MuS)
	}
}

func TestTruncatedExplicitLevels(t *testing.T) {
	p := Params{P: 16, Lambda: 0.03, MuN: 1, MuS: 0.1, R: 32}
	auto, err := SolveTruncated(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := SolveTruncated(p, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(auto.Delay, fixed.Delay, 1e-8) {
		t.Errorf("auto truncation %g != explicit %g", auto.Delay, fixed.Delay)
	}
}

// BenchmarkMarkovSolvers times the production solver against the two
// test oracles on two chains: a small one (r = 8, μs/μn = 1) and the
// paper's canonical private-bus chain (16 processors, r = 32,
// μs/μn = 0.1) behind the Section III cross-check.
func BenchmarkMarkovSolvers(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"P16-R8-mus1", Params{P: 16, Lambda: 0.05, MuN: 1, MuS: 1, R: 8}},
		{"P16-R32-mus0.1", Params{P: 16, Lambda: 0.05, MuN: 1, MuS: 0.1, R: 32}},
	} {
		p := c.p
		b.Run(c.name+"/matrix-geometric", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SolveMatrixGeometric(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/truncated", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SolveTruncated(p, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/stages", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SolveStages(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
