package lp

import "math"

// This file implements the factorized basis behind the revised simplex: a
// sparse LU of the basis matrix B (Gilbert–Peierls left-looking elimination
// with partial pivoting and a triangularity-peeling column preorder) plus a
// product-form eta file for the rank-one basis changes between
// refactorizations. FTRAN solves B z = a (entering columns, basic values),
// BTRAN solves Bᵀ y = c (simplex multipliers, tableau rows); both run in
// O(nnz(L)+nnz(U)+nnz(etas)) against dense work vectors.
//
// Position vs row space: B's k-th column is A[:, basis[k]], so FTRAN maps a
// row-indexed right-hand side to basis-position-indexed coefficients and
// BTRAN the reverse. Eta transforms act purely in position space.

const (
	// luSingularTol declares a basis singular when no pivot candidate in a
	// column exceeds it.
	luSingularTol = 1e-11
	// luDropTol drops eta/L fill entries too small to matter, bounding file
	// growth from cancellation noise.
	luDropTol = 1e-13
	// etaPivotTol is the minimum acceptable eta pivot magnitude; a smaller
	// pivot triggers an early (stability) refactorization.
	etaPivotTol = 1e-8
)

type luFactor struct {
	m int

	// Pivot order: step k eliminated row prow[k]; rowpos is the inverse.
	prow   []int32
	rowpos []int32

	// L (unit diagonal implicit): per step, entries strictly below the pivot,
	// stored (row, value/pivot). Flat CSC-style arrays.
	lstart []int32
	lrow   []int32
	lval   []float64

	// U: per step (column), above-diagonal entries indexed by STEP, plus the
	// diagonal.
	ustart []int32
	urow   []int32
	uval   []float64
	udiag  []float64

	// Eta file: product-form updates appended per pivot since the last
	// refactorization. Entry lists exclude the pivot position.
	estart  []int32
	epos    []int32
	eval    []float64
	epiv    []int32
	epivval []float64

	// Factorization scratch.
	x       []float64
	reach   []int32 // rows touched by the current column
	topo    []int32 // pivoted steps in topological order (reverse postorder)
	stack   []int32
	stackIt []int32
	visited []bool

	// Preorder scratch.
	rowptr, rowlst   []int32
	colcnt, rowcnt   []int32
	fwdq, backq      []int32
	activeR, activeC []bool
	order, tail      []int32
}

// nEtas returns the eta-file length (updates since the last refactorization).
func (f *luFactor) nEtas() int { return len(f.epiv) }

// preorder computes a column permutation of basis that peels row/column
// singletons to the triangular fringes, leaving only the irreducible "bump"
// for general elimination — the classical reinversion ordering that keeps LU
// fill near nnz(B) on network-flow bases. The permutation is returned as the
// new basis order (a slice owned by f, valid until the next call).
func (f *luFactor) preorder(sf *sparseForm, basis []int32) []int32 {
	m := f.m
	// Build the row→positions map (CSR of the basis pattern).
	f.rowptr = growI32(f.rowptr, m+1)
	for i := range f.rowptr {
		f.rowptr[i] = 0
	}
	var ur [1]int32
	var uv [1]float64
	nnz := 0
	for _, j := range basis {
		rows, _ := sf.column(int(j), &ur, &uv)
		for _, r := range rows {
			f.rowptr[r+1]++
		}
		nnz += len(rows)
	}
	for r := 0; r < m; r++ {
		f.rowptr[r+1] += f.rowptr[r]
	}
	f.rowlst = growI32(f.rowlst, nnz)
	fillNext := make([]int32, m)
	copy(fillNext, f.rowptr[:m])
	f.colcnt = growI32(f.colcnt, m)
	f.rowcnt = growI32(f.rowcnt, m)
	for r := range f.rowcnt {
		f.rowcnt[r] = 0
	}
	for k, j := range basis {
		rows, _ := sf.column(int(j), &ur, &uv)
		f.colcnt[k] = int32(len(rows))
		for _, r := range rows {
			f.rowlst[fillNext[r]] = int32(k)
			fillNext[r] = fillNext[r] + 1
			f.rowcnt[r]++
		}
	}

	if cap(f.activeR) < m {
		f.activeR = make([]bool, m)
		f.activeC = make([]bool, m)
	}
	activeR, activeC := f.activeR[:m], f.activeC[:m]
	for i := 0; i < m; i++ {
		activeR[i], activeC[i] = true, true
	}
	f.fwdq, f.backq = f.fwdq[:0], f.backq[:0]
	for k := 0; k < m; k++ {
		if f.colcnt[k] == 1 {
			f.fwdq = append(f.fwdq, int32(k))
		}
	}
	for r := 0; r < m; r++ {
		if f.rowcnt[r] == 1 {
			f.backq = append(f.backq, int32(r))
		}
	}
	f.order, f.tail = f.order[:0], f.tail[:0]

	dropCol := func(k int32, keepRow int32) {
		activeC[k] = false
		rows, _ := sf.column(int(basis[k]), &ur, &uv)
		for _, r := range rows {
			if r == keepRow || !activeR[r] {
				continue
			}
			f.rowcnt[r]--
			if f.rowcnt[r] == 1 {
				f.backq = append(f.backq, r)
			}
		}
	}
	dropRow := func(r int32, keepCol int32) {
		activeR[r] = false
		for idx := f.rowptr[r]; idx < f.rowptr[r+1]; idx++ {
			k := f.rowlst[idx]
			if k == keepCol || !activeC[k] {
				continue
			}
			f.colcnt[k]--
			if f.colcnt[k] == 1 {
				f.fwdq = append(f.fwdq, k)
			}
		}
	}

	for len(f.fwdq) > 0 || len(f.backq) > 0 {
		if len(f.fwdq) > 0 {
			k := f.fwdq[len(f.fwdq)-1]
			f.fwdq = f.fwdq[:len(f.fwdq)-1]
			if !activeC[k] || f.colcnt[k] != 1 {
				continue
			}
			// The single active row of column k.
			var pr int32 = -1
			rows, _ := sf.column(int(basis[k]), &ur, &uv)
			for _, r := range rows {
				if activeR[r] {
					pr = r
					break
				}
			}
			if pr < 0 {
				activeC[k] = false
				continue
			}
			f.order = append(f.order, k)
			dropCol(k, pr)
			dropRow(pr, k)
			continue
		}
		r := f.backq[len(f.backq)-1]
		f.backq = f.backq[:len(f.backq)-1]
		if !activeR[r] || f.rowcnt[r] != 1 {
			continue
		}
		var pc int32 = -1
		for idx := f.rowptr[r]; idx < f.rowptr[r+1]; idx++ {
			if activeC[f.rowlst[idx]] {
				pc = f.rowlst[idx]
				break
			}
		}
		if pc < 0 {
			activeR[r] = false
			continue
		}
		f.tail = append(f.tail, pc)
		dropRow(r, pc)
		dropCol(pc, r)
	}
	// Final order: forward triangle, bump (original relative order), reversed
	// backward triangle.
	for k := 0; k < m; k++ {
		if activeC[k] {
			f.order = append(f.order, int32(k))
		}
	}
	for i := len(f.tail) - 1; i >= 0; i-- {
		f.order = append(f.order, f.tail[i])
	}
	// Map positions to basis columns.
	out := append(f.tail[:0], f.order...) // tail's contents were consumed above
	for i := range out {
		out[i] = basis[out[i]]
	}
	return out
}

// factor computes the sparse LU of the basis (columns A[:, basis[k]] in
// order) and clears the eta file. Returns false if the basis is numerically
// singular. The caller is responsible for column ordering (see preorder).
func (f *luFactor) factor(sf *sparseForm, basis []int32) bool {
	m := sf.m
	f.m = m
	f.prow = growI32(f.prow, m)
	f.rowpos = growI32(f.rowpos, m)
	for i := 0; i < m; i++ {
		f.rowpos[i] = -1
	}
	f.lstart = growI32(f.lstart, m+1)
	f.ustart = growI32(f.ustart, m+1)
	f.udiag = growF(f.udiag, m)
	f.lrow, f.lval = f.lrow[:0], f.lval[:0]
	f.urow, f.uval = f.urow[:0], f.uval[:0]
	f.estart = append(f.estart[:0], 0)
	f.epos, f.eval = f.epos[:0], f.eval[:0]
	f.epiv, f.epivval = f.epiv[:0], f.epivval[:0]

	f.x = growF(f.x, m)
	for i := range f.x {
		f.x[i] = 0
	}
	if cap(f.visited) < m {
		f.visited = make([]bool, m)
	}
	visited := f.visited[:m]

	var ur [1]int32
	var uv [1]float64
	for k := 0; k < m; k++ {
		rows, vals := sf.column(int(basis[k]), &ur, &uv)

		// Symbolic: depth-first reach of the column's pattern through the L
		// columns of earlier steps; topo gets pivoted steps in topological
		// order, reach gets every touched row.
		f.reach, f.topo = f.reach[:0], f.topo[:0]
		for _, r0 := range rows {
			if visited[r0] {
				continue
			}
			f.stack = append(f.stack[:0], r0)
			f.stackIt = append(f.stackIt[:0], 0)
			visited[r0] = true
			for len(f.stack) > 0 {
				top := len(f.stack) - 1
				r := f.stack[top]
				s := f.rowpos[r]
				if s < 0 {
					// Unpivoted row: terminal node.
					f.reach = append(f.reach, r)
					f.stack = f.stack[:top]
					f.stackIt = f.stackIt[:top]
					continue
				}
				advanced := false
				for it := f.stackIt[top]; it < f.lstart[s+1]-f.lstart[s]; it++ {
					child := f.lrow[f.lstart[s]+it]
					if !visited[child] {
						visited[child] = true
						f.stackIt[top] = it + 1
						f.stack = append(f.stack, child)
						f.stackIt = append(f.stackIt, 0)
						advanced = true
						break
					}
				}
				if advanced {
					continue
				}
				f.reach = append(f.reach, r)
				f.topo = append(f.topo, s)
				f.stack = f.stack[:top]
				f.stackIt = f.stackIt[:top]
			}
		}

		// Numeric: sparse lower solve against finished columns.
		for i, r := range rows {
			f.x[r] += vals[i] // += combines duplicate rows defensively
		}
		for t := len(f.topo) - 1; t >= 0; t-- {
			s := f.topo[t]
			v := f.x[f.prow[s]]
			if v == 0 {
				continue
			}
			for idx := f.lstart[s]; idx < f.lstart[s+1]; idx++ {
				f.x[f.lrow[idx]] -= f.lval[idx] * v
			}
		}

		// Pivot: largest magnitude among unpivoted reached rows.
		var pr int32 = -1
		best := luSingularTol
		for _, r := range f.reach {
			if f.rowpos[r] >= 0 {
				continue
			}
			if a := math.Abs(f.x[r]); a > best {
				best, pr = a, r
			}
		}
		if pr < 0 {
			// Singular: clean scratch before reporting failure.
			for _, r := range f.reach {
				f.x[r] = 0
				visited[r] = false
			}
			return false
		}

		// Store U column (pivoted rows) and scaled L column (the rest).
		for _, r := range f.reach {
			if s := f.rowpos[r]; s >= 0 {
				if v := f.x[r]; v != 0 {
					f.urow = append(f.urow, s)
					f.uval = append(f.uval, v)
				}
			}
		}
		piv := f.x[pr]
		f.udiag[k] = piv
		for _, r := range f.reach {
			if f.rowpos[r] >= 0 || r == pr {
				continue
			}
			if v := f.x[r] / piv; math.Abs(v) > luDropTol {
				f.lrow = append(f.lrow, r)
				f.lval = append(f.lval, v)
			}
		}
		f.lstart[k+1] = int32(len(f.lrow))
		f.ustart[k+1] = int32(len(f.urow))
		f.prow[k] = pr
		f.rowpos[pr] = int32(k)

		for _, r := range f.reach {
			f.x[r] = 0
			visited[r] = false
		}
	}
	return true
}

// ftran solves B z = rhs. rhs is row-indexed and is consumed (zeroed); out is
// position-indexed. rhs and out must be distinct length-m slices.
func (f *luFactor) ftran(rhs, out []float64) {
	m := f.m
	// L-solve in row space.
	for k := 0; k < m; k++ {
		v := rhs[f.prow[k]]
		if v == 0 {
			continue
		}
		for idx := f.lstart[k]; idx < f.lstart[k+1]; idx++ {
			rhs[f.lrow[idx]] -= f.lval[idx] * v
		}
	}
	// Gather to position space and backward U-solve.
	for k := 0; k < m; k++ {
		out[k] = rhs[f.prow[k]]
		rhs[f.prow[k]] = 0
	}
	for k := m - 1; k >= 0; k-- {
		zk := out[k] / f.udiag[k]
		out[k] = zk
		if zk == 0 {
			continue
		}
		for idx := f.ustart[k]; idx < f.ustart[k+1]; idx++ {
			out[f.urow[idx]] -= f.uval[idx] * zk
		}
	}
	// Eta file, in append order.
	for e := 0; e < len(f.epiv); e++ {
		r := f.epiv[e]
		zr := out[r] / f.epivval[e]
		if zr != 0 {
			for idx := f.estart[e]; idx < f.estart[e+1]; idx++ {
				out[f.epos[idx]] -= f.eval[idx] * zr
			}
		}
		out[r] = zr
	}
}

// btran solves Bᵀ y = c. c is position-indexed and is consumed (zeroed); out
// is row-indexed. c and out must be distinct length-m slices.
func (f *luFactor) btran(c, out []float64) {
	m := f.m
	// Eta transposes, newest first.
	for e := len(f.epiv) - 1; e >= 0; e-- {
		r := f.epiv[e]
		s := c[r]
		for idx := f.estart[e]; idx < f.estart[e+1]; idx++ {
			s -= f.eval[idx] * c[f.epos[idx]]
		}
		c[r] = s / f.epivval[e]
	}
	// Uᵀ forward solve (in place on c).
	for k := 0; k < m; k++ {
		t := c[k]
		for idx := f.ustart[k]; idx < f.ustart[k+1]; idx++ {
			t -= f.uval[idx] * c[f.urow[idx]]
		}
		c[k] = t / f.udiag[k]
	}
	// Lᵀ backward solve, scattering to row space.
	for k := m - 1; k >= 0; k-- {
		t := c[k]
		for idx := f.lstart[k]; idx < f.lstart[k+1]; idx++ {
			t -= f.lval[idx] * out[f.lrow[idx]]
		}
		out[f.prow[k]] = t
		c[k] = 0
	}
}

// appendEta records the basis change "column at position r replaced, with
// FTRAN'd entering column w" as a product-form update. Returns false when
// w[r] is too small to pivot on stably — the caller should refactorize.
func (f *luFactor) appendEta(w []float64, r int) bool {
	pv := w[r]
	if math.Abs(pv) < etaPivotTol {
		return false
	}
	for i, v := range w {
		if i == r || v == 0 {
			continue
		}
		if math.Abs(v) <= luDropTol {
			continue
		}
		f.epos = append(f.epos, int32(i))
		f.eval = append(f.eval, v)
	}
	f.estart = append(f.estart, int32(len(f.epos)))
	f.epiv = append(f.epiv, int32(r))
	f.epivval = append(f.epivval, pv)
	return true
}
