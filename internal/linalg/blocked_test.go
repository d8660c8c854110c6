package linalg

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// The naive triple loops below are the blocked kernels' reference: NT and
// TN must match them bitwise, NN to a relative tolerance.

// MatMulAddInto accumulates C += A·B for row-major A [m,k], B [k,p],
// C [m,p]. Call ZeroInto(c) first for a plain product.
func MatMulAddInto(c, a, b []float64, m, k, p int) {
	if len(c) != m*p || len(a) != m*k || len(b) != k*p {
		panic("linalg: MatMulAddInto dimension mismatch")
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*p : (i+1)*p]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*p : (kk+1)*p]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulNTAddInto accumulates C += A·Bᵀ for row-major A [m,p], B [k,p],
// C [m,k] — the dA = dC·Bᵀ rule of a matmul backward pass.
func MatMulNTAddInto(c, a, b []float64, m, k, p int) {
	if len(c) != m*k || len(a) != m*p || len(b) != k*p {
		panic("linalg: MatMulNTAddInto dimension mismatch")
	}
	for i := 0; i < m; i++ {
		arow := a[i*p : (i+1)*p]
		crow := c[i*k : (i+1)*k]
		for kk := 0; kk < k; kk++ {
			brow := b[kk*p : (kk+1)*p]
			s := 0.0
			for j := 0; j < p; j++ {
				s += arow[j] * brow[j]
			}
			crow[kk] += s
		}
	}
}

// MatMulTNAddInto accumulates C += Aᵀ·B for row-major A [m,k], B [m,p],
// C [k,p] — the dB = Aᵀ·dC rule of a matmul backward pass.
func MatMulTNAddInto(c, a, b []float64, m, k, p int) {
	if len(c) != k*p || len(a) != m*k || len(b) != m*p {
		panic("linalg: MatMulTNAddInto dimension mismatch")
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		brow := b[i*p : (i+1)*p]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			crow := c[kk*p : (kk+1)*p]
			for j := 0; j < p; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

func fillRand(r *rng.RNG, v []float64) {
	for i := range v {
		v[i] = r.NormFloat64()
	}
}

// relClose compares with a relative tolerance: the blocked NN kernel pairs k
// terms before adding, so it can differ from the naive reference in the last
// bits of a long accumulation.
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

var blockedShapes = []struct{ m, k, p int }{
	{0, 0, 0},
	{0, 3, 2},
	{1, 1, 1},
	{1, 5, 1},
	{7, 1, 3},
	{2, 300, 2},   // tall-thin in k, crosses the k-panel boundary
	{300, 2, 2},   // tall-thin in m
	{2, 2, 300},   // wide
	{5, 129, 7},   // one past the k panel
	{4, 128, 4},   // exactly one k panel, exactly one row tile
	{13, 131, 17}, // nothing a multiple of any tile
	{33, 64, 40},
}

func TestMatMulBlockedMatchesNaive(t *testing.T) {
	r := rng.New(7)
	for _, sh := range blockedShapes {
		m, k, p := sh.m, sh.k, sh.p
		a := make([]float64, m*k)
		b := make([]float64, k*p)
		fillRand(r, a)
		fillRand(r, b)
		want := make([]float64, m*p)
		got := make([]float64, m*p)
		fillRand(r, want)
		copy(got, want) // same nonzero starting accumulator
		MatMulAddInto(want, a, b, m, k, p)
		MatMulBlockedAddInto(got, a, b, m, k, p)
		for i := range want {
			if !relClose(got[i], want[i], 1e-12) {
				t.Fatalf("NN shape %v: c[%d] = %g, naive %g", sh, i, got[i], want[i])
			}
		}
	}
}

func TestMatMulNTBlockedMatchesNaiveBitwise(t *testing.T) {
	r := rng.New(8)
	for _, sh := range blockedShapes {
		m, k, p := sh.m, sh.k, sh.p
		a := make([]float64, m*p)
		b := make([]float64, k*p)
		fillRand(r, a)
		fillRand(r, b)
		want := make([]float64, m*k)
		got := make([]float64, m*k)
		fillRand(r, want)
		copy(got, want)
		MatMulNTAddInto(want, a, b, m, k, p)
		MatMulNTBlockedAddInto(got, a, b, m, k, p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("NT shape %v: c[%d] = %g, naive %g", sh, i, got[i], want[i])
			}
		}
	}
}

func TestMatMulTNBlockedMatchesNaiveBitwise(t *testing.T) {
	r := rng.New(9)
	for _, sh := range blockedShapes {
		m, k, p := sh.m, sh.k, sh.p
		a := make([]float64, m*k)
		b := make([]float64, m*p)
		fillRand(r, a)
		fillRand(r, b)
		want := make([]float64, k*p)
		got := make([]float64, k*p)
		fillRand(r, want)
		copy(got, want)
		MatMulTNAddInto(want, a, b, m, k, p)
		MatMulTNBlockedAddInto(got, a, b, m, k, p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("TN shape %v: c[%d] = %g, naive %g", sh, i, got[i], want[i])
			}
		}
	}
}

// TestMatMulBlockedRowSliceInvariant checks the determinism contract the
// batched search engine relies on: row r of a batched product is bitwise
// identical to the same row computed in a 1-row call, for every batch size.
func TestMatMulBlockedRowSliceInvariant(t *testing.T) {
	r := rng.New(10)
	k, p := 131, 57
	b := make([]float64, k*p)
	fillRand(r, b)
	for _, m := range []int{1, 2, 3, 4, 5, 9, 16} {
		a := make([]float64, m*k)
		fillRand(r, a)
		batch := make([]float64, m*p)
		MatMulBlockedAddInto(batch, a, b, m, k, p)
		for i := 0; i < m; i++ {
			single := make([]float64, p)
			MatMulBlockedAddInto(single, a[i*k:(i+1)*k], b, 1, k, p)
			for j := 0; j < p; j++ {
				if batch[i*p+j] != single[j] {
					t.Fatalf("m=%d row %d col %d: batch %g, single-row %g",
						m, i, j, batch[i*p+j], single[j])
				}
			}
		}
	}
}

// TestMatMulBlockedParallelPath forces the goroutine fan-out (the machine
// running the tests may have GOMAXPROCS=1) and checks both correctness and,
// under -race, the absence of data races between row-range workers.
func TestMatMulBlockedParallelPath(t *testing.T) {
	oldWorkers := mmMaxWorkers
	mmMaxWorkers = 4
	defer func() { mmMaxWorkers = oldWorkers }()

	r := rng.New(11)
	m, k, p := 96, 80, 70 // m*k*p > mmParallelFlops
	if m*k*p < mmParallelFlops {
		t.Fatalf("shape too small to exercise the parallel path")
	}
	a := make([]float64, m*k)
	b := make([]float64, k*p)
	fillRand(r, a)
	fillRand(r, b)
	serial := make([]float64, m*p)
	matMulAddRange(serial, a, b, 0, m, k, p)

	// Concurrent callers sharing the read-only inputs, each with its own
	// output — the shape of use inside concurrent restarts/training steps.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, m*p)
			MatMulBlockedAddInto(got, a, b, m, k, p)
			for i := range got {
				if got[i] != serial[i] {
					t.Errorf("parallel c[%d] = %g, serial %g", i, got[i], serial[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	gotNT := make([]float64, m*k)
	wantNT := make([]float64, m*k)
	a2 := make([]float64, m*p)
	b2 := make([]float64, k*p)
	fillRand(r, a2)
	fillRand(r, b2)
	MatMulNTAddInto(wantNT, a2, b2, m, k, p)
	MatMulNTBlockedAddInto(gotNT, a2, b2, m, k, p)
	for i := range gotNT {
		if gotNT[i] != wantNT[i] {
			t.Fatalf("parallel NT c[%d] = %g, serial %g", i, gotNT[i], wantNT[i])
		}
	}

	gotTN := make([]float64, k*p)
	wantTN := make([]float64, k*p)
	a3 := make([]float64, m*k)
	b3 := make([]float64, m*p)
	fillRand(r, a3)
	fillRand(r, b3)
	MatMulTNAddInto(wantTN, a3, b3, m, k, p)
	MatMulTNBlockedAddInto(gotTN, a3, b3, m, k, p)
	for i := range gotTN {
		if gotTN[i] != wantTN[i] {
			t.Fatalf("parallel TN c[%d] = %g, serial %g", i, gotTN[i], wantTN[i])
		}
	}
}
