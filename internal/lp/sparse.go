package lp

import "math"

// This file holds the sparse computational form the revised simplex operates
// on. Instead of the dense oracle's standard form (shifted/split variables,
// explicit bound rows, an m×(n+m) tableau), the revised engine keeps the
// model almost verbatim:
//
//	min c·x   s.t.   A x + s = b,   lo_j ≤ x_j ≤ hi_j,   slack bounds by rel
//
// A is stored once in compressed sparse column (CSC) layout; the m slack
// columns are implicit unit vectors (coefficient +1, bounds encoding the
// relation: LE ⇒ s ∈ [0,∞), GE ⇒ s ∈ (−∞,0], EQ ⇒ s ∈ [0,0]). Variable
// bounds — including two-sided boxes, which the dense oracle materializes as
// extra rows — are handled natively by the bounded-variable simplex, so a
// path-split box constraint costs nothing beyond its bounds entries.
type sparseForm struct {
	n, m  int // structural columns, rows
	ncols int // n + m (slacks appended)

	// CSC of the structural block (columns [0,n)).
	colptr []int32
	rowidx []int32
	vals   []float64

	// Per column (structurals then slacks): bounds and sense-applied cost.
	lo, hi []float64
	cost   []float64

	// Right-hand side (constant-folded by the modeling layer).
	b []float64
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// build converts p into the computational form, reusing all grown buffers.
// Duplicate terms on one (row, var) are combined, matching the dense
// oracle's `+=` semantics. Maximize is folded into the costs so the engine
// always minimizes; the Solution objective is recomputed in model space at
// extraction, exactly like the dense oracle.
func (f *sparseForm) build(p *Problem) {
	n := len(p.vars)
	m := len(p.cons)
	f.n, f.m, f.ncols = n, m, n+m

	// Pass 1: per-column entry counts (duplicates counted; compressed below).
	f.colptr = growI32(f.colptr, n+1)
	for i := range f.colptr {
		f.colptr[i] = 0
	}
	nnz := 0
	for ci := range p.cons {
		for _, t := range p.cons[ci].expr.Terms {
			if int(t.Var) < 0 || int(t.Var) >= n {
				panic(ErrBadModel)
			}
			f.colptr[t.Var+1]++
			nnz++
		}
	}
	for j := 0; j < n; j++ {
		f.colptr[j+1] += f.colptr[j]
	}
	f.rowidx = growI32(f.rowidx, nnz)
	f.vals = growF(f.vals, nnz)

	// Pass 2: scatter terms column-wise. next[j] tracks the fill cursor.
	next := make([]int32, n)
	copy(next, f.colptr[:n])
	for ci := range p.cons {
		for _, t := range p.cons[ci].expr.Terms {
			k := next[t.Var]
			f.rowidx[k] = int32(ci)
			f.vals[k] = t.Coeff
			next[t.Var] = k + 1
		}
	}

	// Pass 3: combine duplicate rows within each column. Rows were appended
	// in constraint order, so duplicates are detected with one sweep
	// comparing against the last kept row.
	w := int32(0)
	for j := 0; j < n; j++ {
		start := f.colptr[j]
		end := f.colptr[j+1]
		f.colptr[j] = w
		for k := start; k < end; k++ {
			if w > f.colptr[j] && f.rowidx[w-1] == f.rowidx[k] {
				f.vals[w-1] += f.vals[k]
				continue
			}
			f.rowidx[w] = f.rowidx[k]
			f.vals[w] = f.vals[k]
			w++
		}
	}
	f.colptr[n] = w

	// Bounds and costs.
	f.lo = growF(f.lo, n+m)
	f.hi = growF(f.hi, n+m)
	f.cost = growF(f.cost, n+m)
	for j, v := range p.vars {
		f.lo[j], f.hi[j] = v.lo, v.hi
		f.cost[j] = 0
	}
	for i, con := range p.cons {
		j := n + i
		f.cost[j] = 0
		switch con.rel {
		case LE:
			f.lo[j], f.hi[j] = 0, math.Inf(1)
		case GE:
			f.lo[j], f.hi[j] = math.Inf(-1), 0
		default: // EQ
			f.lo[j], f.hi[j] = 0, 0
		}
	}
	sense := 1.0
	if p.objSense == Maximize {
		sense = -1
	}
	for _, t := range p.objExpr.Terms {
		f.cost[t.Var] += sense * t.Coeff
	}

	f.b = growF(f.b, m)
	for i, con := range p.cons {
		f.b[i] = con.rhs
	}
}

// rebuildBounds refreshes only the structural-column bounds from p — the
// ResolveBounds mutation. Slack bounds encode constraint relations, which a
// bound edit cannot change, and costs/A are untouched by construction, so
// the rest of the computational form stays valid.
func (f *sparseForm) rebuildBounds(p *Problem) {
	for j := range p.vars {
		f.lo[j], f.hi[j] = p.vars[j].lo, p.vars[j].hi
	}
}

// column iterates column j (structural or slack) as (rows, vals) slices.
// Slack columns return the cached unit entry.
func (f *sparseForm) column(j int, unitRow *[1]int32, unitVal *[1]float64) ([]int32, []float64) {
	if j < f.n {
		return f.rowidx[f.colptr[j]:f.colptr[j+1]], f.vals[f.colptr[j]:f.colptr[j+1]]
	}
	unitRow[0] = int32(j - f.n)
	unitVal[0] = 1
	return unitRow[:], unitVal[:]
}

// dotColumn returns y·a_j without materializing slack columns.
func (f *sparseForm) dotColumn(y []float64, j int) float64 {
	if j >= f.n {
		return y[j-f.n]
	}
	s := 0.0
	for k := f.colptr[j]; k < f.colptr[j+1]; k++ {
		s += y[f.rowidx[k]] * f.vals[k]
	}
	return s
}

// scatterColumn adds coeff·a_j into the dense vector x.
func (f *sparseForm) scatterColumn(x []float64, j int, coeff float64) {
	if j >= f.n {
		x[j-f.n] += coeff
		return
	}
	for k := f.colptr[j]; k < f.colptr[j+1]; k++ {
		x[f.rowidx[k]] += coeff * f.vals[k]
	}
}
