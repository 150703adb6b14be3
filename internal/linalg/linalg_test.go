package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"rsin/internal/rng"
)

// normal draws a standard normal variate from src by the Marsaglia
// polar method: random matrix entries for the solver tests.
func normal(src *rng.Source) float64 {
	for {
		u := 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// mulVec returns the matrix-vector product a·x, the reference the
// round-trip and VecMul tests check against.
func mulVec(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	m.Add(1, 2, 3)
	if got := m.At(1, 2); got != 10 {
		t.Errorf("At(1,2) = %v, want 10", got)
	}
	if m.At(0, 0) != 0 {
		t.Error("zero matrix should be zero")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	// a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
	vals := []float64{1, 2, 3, 4, 5, 6}
	copy(a.Data, vals)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	src := rng.New(42)
	if err := quick.Check(func(n uint8) bool {
		d := int(n%6) + 1
		a := randomMatrix(src, d, d)
		left := Mul(Identity(d), a)
		right := Mul(a, Identity(d))
		for i := range a.Data {
			if math.Abs(left.Data[i]-a.Data[i]) > 1e-12 ||
				math.Abs(right.Data[i]-a.Data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func randomMatrix(src *rng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = normal(src)
	}
	return m
}

func TestMulVecAndVecMulAgree(t *testing.T) {
	src := rng.New(7)
	a := randomMatrix(src, 4, 4)
	x := []float64{1, 2, 3, 4}
	// (xᵀ·A)ᵀ should equal Aᵀ·x.
	xa := VecMul(x, a)
	at := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	atx := mulVec(at, x)
	for i := range xa {
		if math.Abs(xa[i]-atx[i]) > 1e-12 {
			t.Errorf("VecMul/MulVec disagree at %d: %v vs %v", i, xa[i], atx[i])
		}
	}
}

func TestSolveRoundTrip(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		n := 1 + trial%8
		a := randomMatrix(src, n, n)
		// Diagonal boost keeps the random matrix comfortably
		// non-singular.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = normal(src)
		}
		b := mulVec(a, x)
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestSingularDetection(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factor(a); err != ErrSingular {
		t.Errorf("Factor(singular) err = %v, want ErrSingular", err)
	}
}

func TestPivotingHandlesZeroDiagonal(t *testing.T) {
	// [0 1; 1 0] is non-singular but needs a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	x, err := SolveLinear(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [5 3]", x)
	}
}

func TestInverse(t *testing.T) {
	src := rng.New(13)
	a := randomMatrix(src, 5, 5)
	for i := 0; i < 5; i++ {
		a.Add(i, i, 6)
	}
	lu, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := lu.Inverse()
	prod := Mul(a, inv)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-9 {
				t.Errorf("(A·A⁻¹)[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestSolveMatrix(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{2, 0, 0, 4})
	b := NewMatrix(2, 3)
	copy(b.Data, []float64{2, 4, 6, 8, 12, 16})
	lu, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.SolveMatrix(b)
	want := []float64{1, 2, 3, 2, 3, 4}
	for i, v := range want {
		if math.Abs(x.Data[i]-v) > 1e-12 {
			t.Errorf("X.Data[%d] = %v, want %v", i, x.Data[i], v)
		}
	}
}

func TestScaleAddSub(t *testing.T) {
	a := NewMatrix(1, 3)
	copy(a.Data, []float64{1, 2, 3})
	b := a.Clone().Scale(2)
	if b.Data[2] != 6 || a.Data[2] != 3 {
		t.Error("Scale/Clone interaction wrong")
	}
	c := b.Clone().AddM(a) // [3 6 9]
	if c.Data[0] != 3 || c.Data[2] != 9 {
		t.Errorf("AddM wrong: %v", c.Data)
	}
	d := c.SubM(a) // [2 4 6]
	if d.Data[1] != 4 {
		t.Errorf("SubM wrong: %v", d.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func BenchmarkFactorSolve33(b *testing.B) {
	src := rng.New(1)
	a := randomMatrix(src, 33, 33)
	for i := 0; i < 33; i++ {
		a.Add(i, i, 40)
	}
	rhs := make([]float64, 33)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLinear(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
