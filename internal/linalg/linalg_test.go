package linalg

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// FromRows, MatVec and MatMul are the plain reference products the
// Cholesky round trip reconstructs A and b with.

// FromRows builds a matrix from row slices; all rows must have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// MatVec computes y = M x.
func (m *Matrix) MatVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MatVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MatMul computes C = A B.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("linalg: MatMul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := m.MatVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if !almostEq(y[i], want[i], 1e-12) {
			t.Fatalf("MatVec = %v, want %v", y, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	id := FromRows([][]float64{{1, 0}, {0, 1}})
	c := MatMul(a, id)
	for i := range a.Data {
		if !almostEq(c.Data[i], a.Data[i], 1e-12) {
			t.Fatalf("A*I != A: %v vs %v", c.Data, a.Data)
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := MatMul(a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(c.At(i, j), want[i][j], 1e-12) {
				t.Fatalf("MatMul mismatch at (%d,%d): %v", i, j, c)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose shape wrong: %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("transpose content wrong")
			}
		}
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(8)
		// Random SPD matrix: A = B Bᵀ + n I.
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := MatMul(b, b.T())
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("Cholesky failed on SPD matrix: %v", err)
		}
		// Check L Lᵀ == A.
		rec := MatMul(l, l.T())
		for i := range a.Data {
			if !almostEq(rec.Data[i], a.Data[i], 1e-8) {
				t.Fatalf("L Lᵀ != A at %d: %v vs %v", i, rec.Data[i], a.Data[i])
			}
		}
		// Check the solver: A x = b should reproduce b.
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		x := SolveCholesky(l, rhs)
		ax := a.MatVec(x)
		for i := range rhs {
			if !almostEq(ax[i], rhs[i], 1e-7) {
				t.Fatalf("SolveCholesky residual too large: %v vs %v", ax[i], rhs[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}
