package linalg

import (
	"runtime"
	"sync"
)

// Cache-blocked, register-tiled matmul kernels. These back the batched
// restart engine: the analyzer runs all active restarts as one [R, n] batch,
// so the DNN forward/backward becomes matrix–matrix work routed through
// these kernels instead of R row-loop products.
//
// Determinism contract: for every kernel here, the floating-point result of
// each output CELL depends only on that cell's inputs and is accumulated in
// a fixed order (k ascending, in pairs), never on the number of rows in the
// call, the blocking, or the parallel split. Row r of a batched product is
// therefore bitwise identical to the same row computed in a 1-row call —
// the property the batched search engine relies on to reproduce the scalar
// path's trajectory exactly.

const (
	// mmBlockK is the k-panel height: mmBlockK rows of B are streamed per
	// pass so the active B panel (mmBlockK × p floats) stays cache-resident
	// across the row tile. 128 rows × ~500 cols × 8 B ≈ 512 KiB worst case
	// at DOTE scale, sized for L2.
	mmBlockK = 128
	// mmRowTile is the register tile: 4 output rows share each loaded B row,
	// quartering B traffic relative to the naive row loop.
	mmRowTile = 4
	// mmParallelFlops is the multiply count above which the goroutine fan-out
	// pays for itself; below it a single pass through the serial kernel wins.
	mmParallelFlops = 1 << 17
	// mmMinRowsPerTask bounds the fan-out so no goroutine gets trivial work.
	mmMinRowsPerTask = 4
)

// mmMaxWorkers caps the parallel fan-out; a var so tests can force the
// parallel path on single-CPU machines.
var mmMaxWorkers = runtime.GOMAXPROCS(0)

// mmWorkerCount reports how many goroutines a kernel over m output rows and
// the given multiply count should fan out to; <= 1 means run serially.
// Callers branch on it BEFORE constructing the range closure, so the serial
// hot path (every scalar-pipeline matmul) stays allocation-free.
func mmWorkerCount(m, flops int) int {
	workers := mmMaxWorkers
	if workers > m/mmMinRowsPerTask {
		workers = m / mmMinRowsPerTask
	}
	if flops < mmParallelFlops {
		return 1
	}
	return workers
}

// parallelRowRanges splits [0, m) into per-worker row ranges and runs fn on
// each concurrently. Ranges are disjoint, so worker goroutines never share
// output cells.
func parallelRowRanges(m, workers int, fn func(i0, i1 int)) {
	chunk := (m + workers - 1) / workers
	// Round chunks to the register tile so only the last range has a ragged
	// tail (values are unaffected; this just keeps the quad kernel busy).
	chunk = (chunk + mmRowTile - 1) / mmRowTile * mmRowTile
	var wg sync.WaitGroup
	for i0 := 0; i0 < m; i0 += chunk {
		i1 := i0 + chunk
		if i1 > m {
			i1 = m
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			fn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

// MatMulBlockedAddInto accumulates C += A·B for row-major A [m,k], B [k,p],
// C [m,p] using the blocked kernels. Bit-for-bit, each output row matches a
// 1-row call on the same inputs (see the determinism contract above).
func MatMulBlockedAddInto(c, a, b []float64, m, k, p int) {
	if len(c) != m*p || len(a) != m*k || len(b) != k*p {
		panic("linalg: MatMulBlockedAddInto dimension mismatch")
	}
	if m == 0 || k == 0 || p == 0 {
		return
	}
	if w := mmWorkerCount(m, m*k*p); w > 1 {
		parallelRowRanges(m, w, func(i0, i1 int) {
			matMulAddRange(c, a, b, i0, i1, k, p)
		})
		return
	}
	matMulAddRange(c, a, b, 0, m, k, p)
}

// matMulAddRange runs the blocked NN kernel over output rows [i0, i1).
func matMulAddRange(c, a, b []float64, i0, i1, k, p int) {
	for kb := 0; kb < k; kb += mmBlockK {
		ke := kb + mmBlockK
		if ke > k {
			ke = k
		}
		i := i0
		for ; i+mmRowTile <= i1; i += mmRowTile {
			matMulQuadRows(c, a, b, i, kb, ke, k, p)
		}
		for ; i < i1; i++ {
			matMulOneRow(c[i*p:i*p+p], a[i*k:i*k+k], b, kb, ke, p)
		}
	}
}

// matMulOneRow accumulates crow += arow[kb:ke]·B[kb:ke] with k processed in
// ascending pairs — the same per-cell order as the quad kernel, so a row's
// result never depends on which tile shape computed it.
func matMulOneRow(crow, arow, b []float64, kb, ke, p int) {
	kk := kb
	for ; kk+1 < ke; kk += 2 {
		av0, av1 := arow[kk], arow[kk+1]
		b0 := b[kk*p : kk*p+p]
		b1 := b[(kk+1)*p : (kk+1)*p+p]
		_ = crow[len(b0)-1]
		for j, bv0 := range b0 {
			crow[j] += av0*bv0 + av1*b1[j]
		}
	}
	if kk < ke {
		av := arow[kk]
		brow := b[kk*p : kk*p+p]
		_ = crow[len(brow)-1]
		for j, bv := range brow {
			crow[j] += av * bv
		}
	}
}

// matMulQuadRows accumulates four output rows at once, reusing each loaded
// B element across the row tile. k-pairing matches matMulOneRow exactly.
func matMulQuadRows(c, a, b []float64, i, kb, ke, k, p int) {
	a0 := a[i*k : i*k+k]
	a1 := a[(i+1)*k : (i+1)*k+k]
	a2 := a[(i+2)*k : (i+2)*k+k]
	a3 := a[(i+3)*k : (i+3)*k+k]
	c0 := c[i*p : i*p+p]
	c1 := c[(i+1)*p : (i+1)*p+p]
	c2 := c[(i+2)*p : (i+2)*p+p]
	c3 := c[(i+3)*p : (i+3)*p+p]
	kk := kb
	for ; kk+1 < ke; kk += 2 {
		a00, a01 := a0[kk], a0[kk+1]
		a10, a11 := a1[kk], a1[kk+1]
		a20, a21 := a2[kk], a2[kk+1]
		a30, a31 := a3[kk], a3[kk+1]
		b0 := b[kk*p : kk*p+p]
		b1 := b[(kk+1)*p : (kk+1)*p+p]
		for j, bv0 := range b0 {
			bv1 := b1[j]
			c0[j] += a00*bv0 + a01*bv1
			c1[j] += a10*bv0 + a11*bv1
			c2[j] += a20*bv0 + a21*bv1
			c3[j] += a30*bv0 + a31*bv1
		}
	}
	if kk < ke {
		av0, av1, av2, av3 := a0[kk], a1[kk], a2[kk], a3[kk]
		brow := b[kk*p : kk*p+p]
		for j, bv := range brow {
			c0[j] += av0 * bv
			c1[j] += av1 * bv
			c2[j] += av2 * bv
			c3[j] += av3 * bv
		}
	}
}

// MatMulNTBlockedAddInto accumulates C += A·Bᵀ for row-major A [m,p],
// B [k,p], C [m,k] — the dA = dC·Bᵀ rule of a matmul backward pass. Each
// output cell is one dot product accumulated in a single register chain over
// ascending j, so results are bitwise identical to the naive reference
// MatMulNTAddInto (blocked_test.go) and independent of the 4-wide column
// unroll and the parallel row split.
func MatMulNTBlockedAddInto(c, a, b []float64, m, k, p int) {
	if len(c) != m*k || len(a) != m*p || len(b) != k*p {
		panic("linalg: MatMulNTBlockedAddInto dimension mismatch")
	}
	if m == 0 || k == 0 {
		return
	}
	if w := mmWorkerCount(m, m*k*p); w > 1 {
		parallelRowRanges(m, w, func(i0, i1 int) {
			matMulNTAddRange(c, a, b, i0, i1, k, p)
		})
		return
	}
	matMulNTAddRange(c, a, b, 0, m, k, p)
}

func matMulNTAddRange(c, a, b []float64, i0, i1, k, p int) {
	for i := i0; i < i1; i++ {
		arow := a[i*p : i*p+p]
		crow := c[i*k : i*k+k]
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			b0 := b[kk*p : kk*p+p]
			b1 := b[(kk+1)*p : (kk+1)*p+p]
			b2 := b[(kk+2)*p : (kk+2)*p+p]
			b3 := b[(kk+3)*p : (kk+3)*p+p]
			var s0, s1, s2, s3 float64
			for j, av := range arow {
				s0 += av * b0[j]
				s1 += av * b1[j]
				s2 += av * b2[j]
				s3 += av * b3[j]
			}
			crow[kk] += s0
			crow[kk+1] += s1
			crow[kk+2] += s2
			crow[kk+3] += s3
		}
		for ; kk < k; kk++ {
			brow := b[kk*p : kk*p+p]
			s := 0.0
			for j, av := range arow {
				s += av * brow[j]
			}
			crow[kk] += s
		}
	}
}

// MatMulTNBlockedAddInto accumulates C += Aᵀ·B for row-major A [m,k],
// B [m,p], C [k,p] — the dB = Aᵀ·dC rule. Parallelism splits the OUTPUT rows
// (columns of A); every cell still accumulates over batch rows i in
// ascending order, bitwise matching the naive reference MatMulTNAddInto
// (blocked_test.go).
func MatMulTNBlockedAddInto(c, a, b []float64, m, k, p int) {
	if len(c) != k*p || len(a) != m*k || len(b) != m*p {
		panic("linalg: MatMulTNBlockedAddInto dimension mismatch")
	}
	if m == 0 || k == 0 || p == 0 {
		return
	}
	if w := mmWorkerCount(k, m*k*p); w > 1 {
		parallelRowRanges(k, w, func(k0, k1 int) {
			matMulTNAddRange(c, a, b, k0, k1, m, k, p)
		})
		return
	}
	matMulTNAddRange(c, a, b, 0, k, m, k, p)
}

func matMulTNAddRange(c, a, b []float64, k0, k1, m, k, p int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		brow := b[i*p : i*p+p]
		for kk := k0; kk < k1; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			crow := c[kk*p : kk*p+p]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}
