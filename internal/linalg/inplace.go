package linalg

// In-place kernels over raw row-major slices. These are the allocation-free
// counterparts of the Matrix helpers: the caller owns every buffer, nothing
// is allocated, and the "AddInto" variants accumulate (dst += …) so reverse-
// mode AD can fold gradient contributions without temporaries. The ad
// package's matrix ops and the dote routing components are routed through
// these kernels.

// MatVecInto computes y = A·x for row-major A [m,n]; y must have length m.
func MatVecInto(y, a, x []float64, m, n int) {
	if len(y) != m || len(a) != m*n || len(x) != n {
		panic("linalg: MatVecInto dimension mismatch")
	}
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// MatVecTransAddInto accumulates x += Aᵀ·y for row-major A [m,n].
func MatVecTransAddInto(x, a, y []float64, m, n int) {
	if len(x) != n || len(a) != m*n || len(y) != m {
		panic("linalg: MatVecTransAddInto dimension mismatch")
	}
	for i := 0; i < m; i++ {
		g := y[i]
		if g == 0 {
			continue
		}
		row := a[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			x[j] += g * row[j]
		}
	}
}

// OuterAddInto accumulates the outer product A += y·xᵀ into row-major A
// [m,n], where y has length m and x length n.
func OuterAddInto(a, y, x []float64, m, n int) {
	if len(a) != m*n || len(y) != m || len(x) != n {
		panic("linalg: OuterAddInto dimension mismatch")
	}
	for i := 0; i < m; i++ {
		g := y[i]
		if g == 0 {
			continue
		}
		row := a[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += g * x[j]
		}
	}
}

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

// AddInto computes dst = a + b elementwise.
func AddInto(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("linalg: AddInto length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// AccumInto computes dst += src.
func AccumInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("linalg: AccumInto length mismatch")
	}
	for i := range src {
		dst[i] += src[i]
	}
}

// MatVecInto computes y = M·x into a caller-provided buffer — the
// allocation-free sibling of MatVec.
func (m *Matrix) MatVecInto(y, x []float64) {
	MatVecInto(y, m.Data, x, m.Rows, m.Cols)
}
