package lp

import (
	"math"
	"time"
)

// This file holds a dense two-phase tableau simplex, the equivalence oracle
// the production revised simplex (revised.go) is pinned against — a
// textbook Gauss-Jordan tableau with no factorization, bounded-variable
// logic or dual simplex, so agreement between the two is evidence about the
// revised machinery. Tests in the external lp_test package reach it through
// export_test.go.
//
// The oracle converts a Problem to standard form (min c·x, A x = b, x ≥ 0:
// shifted variables for finite bounds, split variables for free ones,
// slack/surplus columns for inequalities, explicit rows for two-sided
// bounds), runs phase 1 over artificials and phase 2 over the real costs,
// and warm-starts from the previous optimal basis when shapes match.

// pivotEps is the minimum tableau entry for a row to enter the ratio test.
const pivotEps = 1e-9

// denseSolver is the dense tableau oracle. Not safe for concurrent use.
type denseSolver struct {
	Stats SolverStats

	// standard-form workspace: a is m×total row-major, b length m, c length
	// total. Rebuilt from the Problem on every Solve.
	forms []xform
	a     []float64
	b     []float64
	c     []float64

	// tableau workspace
	tabBuf []float64
	tab    [][]float64
	basis  []int
	cost   []float64
	z      []float64
	xstd   []float64

	// cached optimal basis of the previous solve
	warmBasis []int
	warmTotal int
}

// xform maps one model variable to standard-form columns:
//
//	x = shift + sign·u            (one bound finite)
//	x = u⁺ − u⁻                   (free: negCol ≥ 0)
type xform struct {
	posCol int
	negCol int
	shift  float64
	sign   float64
}

func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// buildStandard converts p to standard form (min c·x, A x = b before slack
// signs, x ≥ 0) into the solver's workspace, returning the row count and
// total column count. Conversion rules match the modeling layer: shifted
// variables for finite bounds, split variables for free ones, slack/surplus
// columns for inequalities, and explicit rows for two-sided bounds.
func (s *denseSolver) buildStandard(p *Problem) (m, total int) {
	nv := len(p.vars)
	if cap(s.forms) < nv {
		s.forms = make([]xform, nv)
	}
	s.forms = s.forms[:nv]
	ncols := 0
	for i, v := range p.vars {
		switch {
		case !math.IsInf(v.lo, -1):
			s.forms[i] = xform{posCol: ncols, negCol: -1, shift: v.lo, sign: 1}
			ncols++
		case !math.IsInf(v.hi, 1):
			s.forms[i] = xform{posCol: ncols, negCol: -1, shift: v.hi, sign: -1}
			ncols++
		default:
			s.forms[i] = xform{posCol: ncols, negCol: ncols + 1, shift: 0, sign: 1}
			ncols += 2
		}
	}

	// Count rows and slacks: model constraints plus bound rows for variables
	// whose two-sided bounds the shift alone cannot encode.
	m = len(p.cons)
	nslack := 0
	for _, c := range p.cons {
		if c.rel != EQ {
			nslack++
		}
	}
	for _, v := range p.vars {
		if !math.IsInf(v.lo, -1) && !math.IsInf(v.hi, 1) {
			if v.hi > v.lo {
				m++
				nslack++ // lo + u ≤ hi gains a slack
			} else {
				m++ // u = 0
			}
		}
	}
	total = ncols + nslack

	s.a = growF(s.a, m*total)
	for i := range s.a {
		s.a[i] = 0
	}
	s.b = growF(s.b, m)
	s.c = growF(s.c, total)
	for i := range s.c {
		s.c[i] = 0
	}

	si := ncols // next slack column
	row := 0
	for _, con := range p.cons {
		ar := s.a[row*total : (row+1)*total]
		rhs := con.rhs
		for _, t := range con.expr.Terms {
			if int(t.Var) < 0 || int(t.Var) >= nv {
				panic(ErrBadModel)
			}
			f := s.forms[t.Var]
			ar[f.posCol] += t.Coeff * f.sign
			if f.negCol >= 0 {
				ar[f.negCol] -= t.Coeff
			}
			rhs -= t.Coeff * f.shift
		}
		switch con.rel {
		case LE:
			ar[si] = 1
			si++
		case GE:
			ar[si] = -1
			si++
		}
		s.b[row] = rhs
		row++
	}
	for i, v := range p.vars {
		if !math.IsInf(v.lo, -1) && !math.IsInf(v.hi, 1) {
			ar := s.a[row*total : (row+1)*total]
			ar[s.forms[i].posCol] = 1
			if v.hi > v.lo {
				ar[si] = 1
				si++
				s.b[row] = v.hi - v.lo
			} else {
				s.b[row] = 0
			}
			row++
		}
	}

	sense := 1.0
	if p.objSense == Maximize {
		sense = -1
	}
	for _, t := range p.objExpr.Terms {
		f := s.forms[t.Var]
		s.c[f.posCol] += sense * t.Coeff * f.sign
		if f.negCol >= 0 {
			s.c[f.negCol] -= sense * t.Coeff
		}
	}
	return m, total
}

// growTab shapes the tableau workspace to m rows of the given width,
// zeroed.
func (s *denseSolver) growTab(m, width int) [][]float64 {
	need := m * width
	s.tabBuf = growF(s.tabBuf, need)
	for i := range s.tabBuf {
		s.tabBuf[i] = 0
	}
	if cap(s.tab) < m {
		s.tab = make([][]float64, m)
	}
	t := s.tab[:m]
	for i := range t {
		t[i] = s.tabBuf[i*width : (i+1)*width : (i+1)*width]
	}
	return t
}

// Solve converts p to standard form and runs the dense tableau simplex,
// warm-starting from the previous optimal basis when shapes match.
func (s *denseSolver) Solve(p *Problem) *Solution {
	s.Stats.Solves.Add(1)
	m, total := s.buildStandard(p)

	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = 200 * (total + m + 10)
	}

	sol := &Solution{}
	if m == 0 {
		for _, cj := range s.c {
			if cj < -eps {
				sol.Status = StatusUnbounded
				return sol
			}
		}
		sol.Status = StatusOptimal
		s.xstd = growF(s.xstd, total)
		for i := range s.xstd {
			s.xstd[i] = 0
		}
		s.extract(p, total, sol)
		return sol
	}

	st := StatusIterLimit
	p1, p2 := 0, 0
	warmOK := false
	if len(s.warmBasis) == m && s.warmTotal == total {
		var wp int
		st, wp = s.warmSolve(m, total, maxIter, p)
		warmOK = st == StatusOptimal
		p2 += wp // warm starts begin feasible: all pivots are phase 2
	}
	if !warmOK {
		s.Stats.ColdSolves.Add(1)
		var cp1, cp2 int
		st, cp1, cp2 = s.coldSolve(m, total, maxIter, p)
		p1 += cp1
		p2 += cp2
	}
	pivots := p1 + p2
	s.Stats.Pivots.Add(int64(pivots))
	s.Stats.Phase1Pivots.Add(int64(p1))
	s.Stats.Phase2Pivots.Add(int64(p2))
	sol.Status = st
	if st != StatusOptimal {
		// A failed solve invalidates the cached basis.
		s.warmBasis = s.warmBasis[:0]
		s.warmTotal = 0
		return sol
	}
	s.extract(p, total, sol)
	return sol
}

// warmSolve canonicalizes a fresh tableau around the cached basis and, if
// the resulting vertex is primal feasible, runs phase 2 only. The int return
// is the phase-2 pivot count.
func (s *denseSolver) warmSolve(m, total, maxIter int, p *Problem) (Status, int) {
	width := total + 1
	t := s.growTab(m, width)
	for i := 0; i < m; i++ {
		copy(t[i], s.a[i*total:(i+1)*total])
		t[i][width-1] = s.b[i]
	}
	basis := growI(s.basis, m)
	// Pivot each cached basis column into its own row. Row swaps keep the
	// elimination stable when the new data permutes which row a basis
	// variable best lives in; a near-zero pivot column means the cached
	// basis is singular for this data and the warm start is abandoned.
	for i := 0; i < m; i++ {
		col := s.warmBasis[i]
		bestRow, bestAbs := -1, 1e-7
		for r := i; r < m; r++ {
			if abs := math.Abs(t[r][col]); abs > bestAbs {
				bestRow, bestAbs = r, abs
			}
		}
		if bestRow < 0 {
			return StatusIterLimit, 0 // singular: fall back cold
		}
		t[i], t[bestRow] = t[bestRow], t[i]
		pivot(t, basis, i, col)
	}
	// Primal feasibility of the warm vertex.
	for i := 0; i < m; i++ {
		if t[i][width-1] < -1e-7 {
			return StatusIterLimit, 0 // infeasible start: fall back cold
		}
		if t[i][width-1] < 0 {
			t[i][width-1] = 0
		}
	}
	s.cost = growF(s.cost, width)
	copy(s.cost, s.c)
	s.cost[width-1] = 0
	s.z = growF(s.z, width)
	_, pivots, st := runSimplex(t, basis, s.cost, total, maxIter, p.Deadline, s.z)
	if st != StatusOptimal {
		return st, pivots
	}
	s.finish(t, basis, total, width)
	return StatusOptimal, pivots
}

// coldSolve runs the full two-phase simplex with artificial variables,
// returning the phase-1 and phase-2 pivot counts separately.
func (s *denseSolver) coldSolve(m, total, maxIter int, p *Problem) (Status, int, int) {
	width := total + m + 1
	t := s.growTab(m, width)
	for i := 0; i < m; i++ {
		sign := 1.0
		if s.b[i] < 0 {
			sign = -1
		}
		row := t[i]
		ar := s.a[i*total : (i+1)*total]
		for j := 0; j < total; j++ {
			row[j] = sign * ar[j]
		}
		row[total+i] = 1
		row[width-1] = sign * s.b[i]
	}
	basis := growI(s.basis, m)
	for i := range basis {
		basis[i] = total + i
	}

	// Phase 1: minimize the sum of artificials.
	s.cost = growF(s.cost, width)
	for j := range s.cost {
		s.cost[j] = 0
	}
	for j := total; j < total+m; j++ {
		s.cost[j] = 1
	}
	s.z = growF(s.z, width)
	z1, p1, st := runSimplex(t, basis, s.cost, total+m, maxIter, p.Deadline, s.z)
	if st != StatusOptimal {
		return st, p1, 0
	}
	if z1 > 1e-7 {
		return StatusInfeasible, p1, 0
	}
	// Drive remaining artificials out of the basis.
	for i := 0; i < len(t); i++ {
		if basis[i] < total {
			continue
		}
		pivotCol := -1
		for j := 0; j < total; j++ {
			if math.Abs(t[i][j]) > 1e-7 {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			pivot(t, basis, i, pivotCol)
		} else {
			// Redundant row: remove it.
			t = append(t[:i], t[i+1:]...)
			basis = append(basis[:i], basis[i+1:]...)
			i--
		}
	}

	// Phase 2: minimize the real objective. Artificials are nonbasic and
	// excluded from the entering scan, so they stay out.
	copy(s.cost, s.c)
	for j := total; j < width; j++ {
		s.cost[j] = 0
	}
	_, p2, st := runSimplex(t, basis, s.cost, total, maxIter, p.Deadline, s.z)
	if st != StatusOptimal {
		return st, p1, p2
	}
	s.finish(t, basis, total, width)
	return StatusOptimal, p1, p2
}

// finish reads the optimal vertex out of the tableau and caches the basis
// for the next warm start. Only bases covering every original row (no
// redundant rows were dropped) are cached; a partial basis cannot
// canonicalize the full rebuilt tableau.
func (s *denseSolver) finish(t [][]float64, basis []int, total, width int) {
	s.xstd = growF(s.xstd, total)
	for i := range s.xstd {
		s.xstd[i] = 0
	}
	for i, bi := range basis {
		if bi < total {
			s.xstd[bi] = t[i][width-1]
		}
	}
	s.warmBasis = append(s.warmBasis[:0], basis...)
	s.warmTotal = total
}

// extract maps the standard-form solution back to model variables and
// computes the objective in model space.
func (s *denseSolver) extract(p *Problem, total int, sol *Solution) {
	sol.X = make([]float64, len(p.vars))
	for i := range p.vars {
		f := s.forms[i]
		u := s.xstd[f.posCol]
		x := f.shift + f.sign*u
		if f.negCol >= 0 {
			x -= s.xstd[f.negCol]
		}
		sol.X[i] = x
	}
	obj := p.objExpr.Const
	for _, t := range p.objExpr.Terms {
		obj += t.Coeff * sol.X[t.Var]
	}
	sol.Objective = obj
}

// runSimplex optimizes the tableau in place. Columns >= allowCols are never
// chosen to enter the basis. z is caller-provided scratch of at least the
// tableau width (it holds the reduced-cost row). Returns the objective value
// for the given cost vector, the number of pivots performed (the telemetry
// layer's per-solve work measure) and a status. The deadline, when set, is
// polled every 64 pivots — often enough to bound overruns, rare enough that
// the clock read never shows up in profiles.
func runSimplex(t [][]float64, basis []int, cost []float64, allowCols, maxIter int, deadline time.Time, z []float64) (float64, int, Status) {
	m := len(t)
	if m == 0 {
		return 0, 0, StatusOptimal
	}
	pivots := 0
	width := len(t[0])
	// Reduced-cost row: z[j] = cost[j] - cB · column j. Maintain it
	// explicitly alongside the tableau.
	z = z[:width]
	copy(z, cost)
	zVal := 0.0
	for i, bi := range basis {
		cb := cost[bi]
		if cb == 0 {
			continue
		}
		row := t[i]
		for j := 0; j < width; j++ {
			z[j] -= cb * row[j]
		}
		zVal += cb * row[width-1]
	}

	// Anti-cycling: Dantzig's rule is fastest but can cycle on degenerate
	// vertices. Instead of flipping to Bland's rule at an arbitrary iteration
	// count (which lets a cycle near the start spin for half the budget),
	// watch for stalling: a run of consecutive degenerate pivots longer than
	// the window engages Bland's rule — which provably terminates — until
	// real progress resumes.
	useBland := false
	stall := 0
	window := stallWindow
	if 2*m > window {
		window = 2 * m
	}
	for iter := 0; iter < maxIter; iter++ {
		if !deadline.IsZero() && iter%64 == 0 && time.Now().After(deadline) {
			return 0, pivots, StatusIterLimit
		}
		// Entering variable.
		enter := -1
		best := -eps
		for j := 0; j < allowCols; j++ {
			if z[j] < -eps {
				if useBland {
					enter = j
					break
				}
				if z[j] < best {
					best = z[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			// Optimal. Recompute objective from basis values.
			obj := 0.0
			for i, bi := range basis {
				obj += cost[bi] * t[i][width-1]
			}
			return obj, pivots, StatusOptimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > pivotEps {
				ratio := t[i][width-1] / t[i][enter]
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			// No row limits the entering column. The incrementally updated
			// reduced-cost row drifts over long pivot sequences, so a column
			// whose exact reduced cost is ≈ 0 can scan as improving; with no
			// positive tableau entries it would then read as "unbounded" on a
			// provably bounded problem (demand vectors spanning many orders of
			// magnitude trigger exactly this). Recompute the row from the
			// tableau before trusting the verdict.
			recomputeReducedCosts(t, basis, cost, z, width)
			if z[enter] < -eps {
				return 0, pivots, StatusUnbounded
			}
			continue // refreshed row: rescan entering candidates
		}
		// Stall accounting: a degenerate pivot (θ ≈ 0) leaves the objective
		// unchanged, and a run of them is a potential cycle — switch to
		// Bland's rule, which provably terminates, and switch back once the
		// iterate actually moves again. Bland picks the FIRST negative reduced
		// cost, so unlike Dantzig it will happily pivot on an eps-scale drift
		// artifact; refresh the z row from the tableau on engagement and
		// rescan, so its choices are made on clean data.
		if bestRatio <= stallEps {
			stall++
			if stall >= window && !useBland {
				useBland = true
				recomputeReducedCosts(t, basis, cost, z, width)
				continue
			}
		} else {
			stall = 0
			useBland = false
		}
		pivot(t, basis, leave, enter)
		pivots++
		// Update reduced costs.
		factor := z[enter]
		if factor != 0 {
			row := t[leave]
			for j := 0; j < width; j++ {
				z[j] -= factor * row[j]
			}
		}
	}
	return 0, pivots, StatusIterLimit
}

// recomputeReducedCosts rebuilds z[j] = cost[j] − cB·column j exactly from
// the current tableau, discarding accumulated incremental-update error.
func recomputeReducedCosts(t [][]float64, basis []int, cost, z []float64, width int) {
	copy(z, cost[:width])
	for i, bi := range basis {
		cb := cost[bi]
		if cb == 0 {
			continue
		}
		row := t[i]
		for j := 0; j < width; j++ {
			z[j] -= cb * row[j]
		}
	}
}

// pivot performs a Gauss-Jordan pivot at (row, col) and records the basis
// change.
func pivot(t [][]float64, basis []int, row, col int) {
	width := len(t[0])
	pr := t[row]
	pv := pr[col]
	inv := 1 / pv
	for j := 0; j < width; j++ {
		pr[j] *= inv
	}
	pr[col] = 1 // kill round-off
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		ri := t[i]
		for j := 0; j < width; j++ {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
	basis[row] = col
}
