// Package linalg provides the small dense linear-algebra kernel used by
// the Markov-chain analysis of the single shared bus (paper Section III):
// dense matrices, LU factorization with partial pivoting, and the block
// operations needed by the block-tridiagonal stationary-distribution
// solver. Only real float64 matrices are supported; sizes are tens of
// rows (r+1 states per queue level), so a straightforward O(n³)
// implementation is appropriate.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Scale multiplies every element by a, in place, and returns m.
func (m *Matrix) Scale(a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// AddM adds o element-wise into m (in place) and returns m.
// Shapes must match.
func (m *Matrix) AddM(o *Matrix) *Matrix {
	m.mustSameShape(o)
	for i := range m.Data {
		m.Data[i] += o.Data[i]
	}
	return m
}

// SubM subtracts o element-wise from m (in place) and returns m.
func (m *Matrix) SubM(o *Matrix) *Matrix {
	m.mustSameShape(o)
	for i := range m.Data {
		m.Data[i] -= o.Data[i]
	}
	return m
}

func (m *Matrix) mustSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if NearZero(aik, 0) { // exact sparsity skip
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowC := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j, bv := range rowB {
				rowC[j] += aik * bv
			}
		}
	}
	return c
}

// VecMul returns the vector-matrix product xᵀ·a as a vector.
func VecMul(x []float64, a *Matrix) []float64 {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("linalg: cannot multiply vector of length %d by %dx%d", len(x), a.Rows, a.Cols))
	}
	y := make([]float64, a.Cols)
	for i, xv := range x {
		if NearZero(xv, 0) { // exact sparsity skip
			continue
		}
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			y[j] += xv * v
		}
	}
	return y
}

// LU is an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// Factor computes the LU factorization of a square matrix a. The input
// is not modified. It returns ErrSingular when a pivot underflows.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic("linalg: Factor requires a square matrix")
	}
	n := a.Rows
	if err := a.CheckFinite(); err != nil {
		return nil, err
	}
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot: largest |value| in column k at or below row k.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				maxAbs, p = a, i
			}
		}
		if NearZero(maxAbs, 0) {
			return nil, ErrSingular
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		if NearZero(pivVal, 0) {
			return nil, ErrSingular // unreachable: |pivVal| = maxAbs > 0
		}
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if NearZero(f, 0) { // exact sparsity skip
				continue
			}
			rowI := lu.Data[i*n : (i+1)*n]
			rowK := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= f * rowK[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve solves A·x = b for x using the factorization.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("linalg: rhs length mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has implicit unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu.Data[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu.Data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveMatrix solves A·X = B column by column.
func (f *LU) SolveMatrix(b *Matrix) *Matrix {
	if b.Rows != f.lu.Rows {
		panic("linalg: rhs row mismatch")
	}
	x := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		sol := f.Solve(col)
		for i := 0; i < b.Rows; i++ {
			x.Set(i, j, sol[i])
		}
	}
	return x
}

// Inverse returns A⁻¹ computed from the factorization.
func (f *LU) Inverse() *Matrix {
	return f.SolveMatrix(Identity(f.lu.Rows))
}

// SolveLinear solves A·x = b directly (factor + solve). Non-finite
// entries in a or b are rejected with ErrNonFinite.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	if err := CheckFiniteVec(b); err != nil {
		return nil, err
	}
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
