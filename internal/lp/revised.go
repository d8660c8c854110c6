package lp

import (
	"math"
	"sort"
	"time"
)

// This file implements the sparse revised simplex: a bounded-variable primal
// simplex (composite phase 1 + phase 2) and a dual simplex, both driven
// through the factorized basis of basis.go over the CSC storage of
// sparse.go. Where a dense tableau (the test oracle) streams O(rows×cols)
// memory per pivot, the revised engine touches O(nnz) — the entering column,
// one BTRAN, one FTRAN and a pricing pass — which is what lets tegen-grown
// topologies with tens of thousands of rows solve interactively.
//
// Design notes (DESIGN.md §11): nonbasic variables sit at a bound (or at
// zero when free), so two-sided boxes never materialize as rows; phase 1
// minimizes the sum of bound violations with composite costs recomputed per
// iteration; a triangular crash basis covers infeasible rows with structural
// columns before phase 1 ever runs; the dual simplex re-solves a bound
// tightening from the retained (still dual-feasible) basis in a handful of
// pivots instead of a cold restart.

const (
	// primalTol mirrors the dense oracle's feasibility tolerance.
	primalTol = 1e-7
	// dualTol is the reduced-cost optimality tolerance (the package eps).
	dualTol = 1e-9
	// dualStartTol is the looser test for "is this basis still dual feasible
	// enough to hand to the dual simplex" on bound re-solves.
	dualStartTol = 1e-7
	// rsPivotTol is the minimum |w_i| for a row to participate in a ratio
	// test.
	rsPivotTol = 1e-9
	// priceChunk bounds how many eligible-candidate columns a partial pricing
	// pass examines past its first hit before committing to the best seen.
	priceChunk = 1024

	// DefaultRefactorEvery is the eta-file length that triggers a periodic
	// refactorization when Solver.RefactorEvery is zero.
	DefaultRefactorEvery = 64
)

type vstatus byte

const (
	vsBasic vstatus = iota
	vsLower
	vsUpper
	vsFree // nonbasic at value 0, both bounds infinite
)

// revised holds the engine state reused across solves: workspace for every
// cold Solve, and the last optimal basis for bound-tightening dual re-solves
// (ResolveBounds).
type revised struct {
	sf sparseForm
	f  luFactor

	basis []int32
	vstat []vstatus
	xB    []float64

	// dense scratch, all length m
	rhs, w, y, cb []float64
	infeas        []int8

	// reduced-cost scratch over columns (dual simplex pricing)
	alpha []float64
	dred  []float64

	// breakpoint scratch for the long-step phase-1 ratio test
	bps []ratioBP

	// partial-pricing cursor
	cursor int

	// nv/nc fingerprint the Problem shape the retained basis belongs to;
	// valid is set only by a successful solve.
	nv, nc int
	valid  bool

	// sfProb identifies the Problem sf was built from. The resolve path may
	// refresh sf incrementally (rebuildBounds) only when the
	// caller hands back the very same Problem — a shape match alone is not
	// enough: a pooled solver whose last problem merely had the same
	// dimensions would otherwise keep its stale matrix and costs.
	sfProb *Problem

	refactorEvery int
}

// ratioBP is one breakpoint of the piecewise-linear phase-1 objective along
// the entering direction: at step t basic row hits a bound and the slope of
// the infeasibility sum bends up by gain = |rate|.
type ratioBP struct {
	t, gain float64
	row     int
	land    vstatus
}

func (rv *revised) value(j int) float64 {
	switch rv.vstat[j] {
	case vsLower:
		return rv.sf.lo[j]
	case vsUpper:
		return rv.sf.hi[j]
	default:
		return 0
	}
}

// normalizeStatuses repairs nonbasic statuses that no longer agree with the
// (possibly changed) bounds — a bound re-solve must never place a variable
// at an infinite bound. A repaired status can break dual feasibility of the
// retained basis; ResolveBounds checks that unconditionally afterwards.
func (rv *revised) normalizeStatuses() {
	sf := &rv.sf
	for j := 0; j < sf.ncols; j++ {
		switch rv.vstat[j] {
		case vsLower:
			if math.IsInf(sf.lo[j], -1) {
				if !math.IsInf(sf.hi[j], 1) {
					rv.vstat[j] = vsUpper
				} else {
					rv.vstat[j] = vsFree
				}
			}
		case vsUpper:
			if math.IsInf(sf.hi[j], 1) {
				if !math.IsInf(sf.lo[j], -1) {
					rv.vstat[j] = vsLower
				} else {
					rv.vstat[j] = vsFree
				}
			}
		case vsFree:
			if !math.IsInf(sf.lo[j], -1) {
				rv.vstat[j] = vsLower
			} else if !math.IsInf(sf.hi[j], 1) {
				rv.vstat[j] = vsUpper
			}
		}
	}
}

func (rv *revised) growState() {
	sf := &rv.sf
	m := sf.m
	rv.xB = growF(rv.xB, m)
	rv.rhs = growF(rv.rhs, m)
	rv.w = growF(rv.w, m)
	rv.y = growF(rv.y, m)
	rv.cb = growF(rv.cb, m)
	if cap(rv.infeas) < m {
		rv.infeas = make([]int8, m)
	}
	rv.infeas = rv.infeas[:m]
	if cap(rv.vstat) < sf.ncols {
		rv.vstat = make([]vstatus, sf.ncols)
	}
	rv.vstat = rv.vstat[:sf.ncols]
}

// coldStart installs the slack basis with every structural at a bound, then
// runs the triangular crash: rows whose slack-basic start would violate the
// slack's own bounds get covered by an unused structural column whose
// topmost nonzero sits in that row (so the crash basis stays lower
// triangular and factors without fill). The crash turns the O(rows) phase-1
// pivot march of flow LPs — one pivot per demand row — into a triangular
// solve. The partial-pricing cursor restarts at column 0: a previous solve
// stopped by its iteration limit or deadline leaves it mid-scan, and a cold
// solve must not inherit where that scan stopped.
func (rv *revised) coldStart() {
	sf := &rv.sf
	n, m := sf.n, sf.m
	rv.cursor = 0
	rv.growState()
	if cap(rv.basis) < m {
		rv.basis = make([]int32, m)
	}
	rv.basis = rv.basis[:m]
	for j := 0; j < n; j++ {
		switch {
		case !math.IsInf(sf.lo[j], -1):
			rv.vstat[j] = vsLower
		case !math.IsInf(sf.hi[j], 1):
			rv.vstat[j] = vsUpper
		default:
			rv.vstat[j] = vsFree
		}
	}
	for i := 0; i < m; i++ {
		rv.basis[i] = int32(n + i)
		rv.vstat[n+i] = vsBasic
	}

	// Residual of each row with every structural at its start value.
	r := rv.rhs
	copy(r, sf.b)
	for j := 0; j < n; j++ {
		if v := rv.value(j); v != 0 {
			sf.scatterColumn(r, j, -v)
		}
	}
	// Bucket structural columns by their topmost row.
	bucket := make([]int32, m)
	for i := range bucket {
		bucket[i] = -1
	}
	bestAbs := make([]float64, m)
	for j := 0; j < n; j++ {
		if sf.colptr[j] == sf.colptr[j+1] || sf.lo[j] == sf.hi[j] {
			continue // empty or fixed column: useless as a crash pivot
		}
		top := sf.rowidx[sf.colptr[j]]
		for k := sf.colptr[j]; k < sf.colptr[j+1]; k++ {
			if sf.rowidx[k] < top {
				top = sf.rowidx[k]
			}
		}
		// |a_{top,j}|: find the entry at the top row.
		var a float64
		for k := sf.colptr[j]; k < sf.colptr[j+1]; k++ {
			if sf.rowidx[k] == top {
				a = math.Abs(sf.vals[k])
				break
			}
		}
		if a < 1e-7 {
			continue
		}
		if bucket[top] < 0 || a > bestAbs[top] {
			bucket[top], bestAbs[top] = int32(j), a
		}
	}
	for i := 0; i < m; i++ {
		slack := n + i
		if r[i] >= sf.lo[slack]-primalTol && r[i] <= sf.hi[slack]+primalTol {
			continue // slack start already feasible for this row
		}
		j := bucket[i]
		if j < 0 {
			continue
		}
		rv.vstat[slack] = vsLower
		if math.IsInf(sf.lo[slack], -1) {
			rv.vstat[slack] = vsUpper // GE slack: upper bound 0
		}
		rv.basis[i] = j
		rv.vstat[j] = vsBasic
	}
}

// refactor (re)factorizes the current basis — preorder, LU, recompute basic
// values — and returns false if the basis is singular.
func (rv *revised) refactor(stats *SolverStats) bool {
	rv.f.m = rv.sf.m
	order := rv.f.preorder(&rv.sf, rv.basis)
	copy(rv.basis, order)
	if !rv.f.factor(&rv.sf, rv.basis) {
		return false
	}
	if stats != nil {
		stats.Refactors.Add(1)
	}
	rv.computeXB()
	return true
}

// computeXB solves B x_B = b − N x_N from the current factorization.
func (rv *revised) computeXB() {
	sf := &rv.sf
	r := rv.rhs
	copy(r, sf.b)
	for j := 0; j < sf.ncols; j++ {
		if rv.vstat[j] == vsBasic {
			continue
		}
		if v := rv.value(j); v != 0 {
			sf.scatterColumn(r, j, -v)
		}
	}
	rv.f.ftran(r, rv.xB)
}

// classifyInfeas fills rv.infeas (-1 below lower, +1 above upper, 0 inside)
// and returns the number of infeasible basics.
func (rv *revised) classifyInfeas() int {
	sf := &rv.sf
	bad := 0
	for i, bi := range rv.basis {
		l, h := sf.lo[bi], sf.hi[bi]
		switch {
		case rv.xB[i] < l-primalTol:
			rv.infeas[i] = -1
			bad++
		case rv.xB[i] > h+primalTol:
			rv.infeas[i] = 1
			bad++
		default:
			rv.infeas[i] = 0
		}
	}
	return bad
}

func (rv *revised) primalFeasible() bool { return rv.classifyInfeas() == 0 }

// dualFeasible reports whether the current basis's reduced costs satisfy the
// sign conditions within dualStartTol — the gate for handing a primal-
// infeasible retained basis to the dual simplex.
func (rv *revised) dualFeasible() bool {
	sf := &rv.sf
	for i, bi := range rv.basis {
		rv.cb[i] = sf.cost[bi]
	}
	rv.f.btran(rv.cb, rv.y)
	for j := 0; j < sf.ncols; j++ {
		if rv.vstat[j] == vsBasic || sf.lo[j] == sf.hi[j] {
			continue
		}
		d := sf.cost[j] - sf.dotColumn(rv.y, j)
		switch rv.vstat[j] {
		case vsLower:
			if d < -dualStartTol {
				return false
			}
		case vsUpper:
			if d > dualStartTol {
				return false
			}
		case vsFree:
			if math.Abs(d) > dualStartTol {
				return false
			}
		}
	}
	return true
}

// eligible reports whether nonbasic j with reduced cost d can improve a
// minimization, and if so the movement direction (+1 increase, −1 decrease).
func (rv *revised) eligible(j int, d, tol float64) (float64, bool) {
	sf := &rv.sf
	if sf.lo[j] == sf.hi[j] {
		return 0, false // fixed: cannot move
	}
	switch rv.vstat[j] {
	case vsLower:
		if d < -tol {
			return 1, true
		}
	case vsUpper:
		if d > tol {
			return -1, true
		}
	case vsFree:
		if d < -tol {
			return 1, true
		}
		if d > tol {
			return -1, true
		}
	}
	return 0, false
}

// primal runs the bounded-variable primal simplex with composite phase-1
// costs: while any basic violates a bound the pricing vector is the sum-of-
// infeasibilities subgradient, and the ratio test walks the piecewise-linear
// infeasibility objective (long-step rule) so one pivot can cross many bound
// breakpoints. Pivots are attributed to phase 1 (infeasible start of the
// iteration) or phase 2.
func (rv *revised) primal(stats *SolverStats, maxIter int, deadline time.Time) (st Status, p1, p2 int) {
	sf := &rv.sf
	m := sf.m
	refactorEvery := rv.refactorEvery

	useBland := false
	stall := 0
	window := stallWindow
	if 2*m > window {
		window = 2 * m
	}
	cleanups := 0

	for iter := 0; iter < maxIter; iter++ {
		if !deadline.IsZero() && iter%64 == 0 && time.Now().After(deadline) {
			return StatusIterLimit, p1, p2
		}
		if rv.f.nEtas() >= refactorEvery {
			if !rv.refactor(stats) {
				return StatusIterLimit, p1, p2
			}
		}

		nbad := rv.classifyInfeas()
		phase1 := nbad > 0

		// Pricing vector y = B⁻ᵀ c_B for the active costs.
		if phase1 {
			for i := range rv.cb {
				rv.cb[i] = float64(rv.infeas[i])
			}
		} else {
			for i, bi := range rv.basis {
				rv.cb[i] = sf.cost[bi]
			}
		}
		rv.f.btran(rv.cb, rv.y)

		// Partial pricing: scan from a rotating cursor, commit to the best
		// candidate within priceChunk of the first hit; Bland's rule (first
		// eligible from column 0) engages on degenerate stalls.
		enter := -1
		var sigma float64
		best := 0.0
		start := rv.cursor
		if useBland {
			start = 0
		}
		scanned, sinceHit := 0, 0
		for scanned < sf.ncols {
			j := start + scanned
			if j >= sf.ncols {
				j -= sf.ncols
			}
			scanned++
			if rv.vstat[j] == vsBasic {
				continue
			}
			var d float64
			if phase1 {
				d = -sf.dotColumn(rv.y, j)
			} else {
				d = sf.cost[j] - sf.dotColumn(rv.y, j)
			}
			sg, ok := rv.eligible(j, d, dualTol)
			if !ok {
				if enter >= 0 {
					sinceHit++
					if sinceHit >= priceChunk {
						break
					}
				}
				continue
			}
			if useBland {
				best, enter, sigma = math.Abs(d), j, sg
				break
			}
			if a := math.Abs(d); a > best {
				best, enter, sigma = a, j, sg
			}
			sinceHit++
			if sinceHit >= priceChunk {
				break
			}
		}
		rv.cursor = 0
		if enter >= 0 {
			rv.cursor = enter + 1
			if rv.cursor >= sf.ncols {
				rv.cursor = 0
			}
		}

		if enter < 0 {
			if phase1 {
				return StatusInfeasible, p1, p2
			}
			// Optimal for the current factors. Long pivot runs accumulate
			// drift in x_B; refactorize once and re-verify before trusting
			// the verdict, so the reported vertex is factor-fresh.
			if rv.f.nEtas() > 0 && cleanups < 3 {
				cleanups++
				if !rv.refactor(stats) {
					return StatusIterLimit, p1, p2
				}
				useBland = false
				stall = 0
				continue
			}
			return StatusOptimal, p1, p2
		}

		// FTRAN the entering column.
		for i := range rv.rhs {
			rv.rhs[i] = 0
		}
		sf.scatterColumn(rv.rhs, enter, 1)
		rv.f.ftran(rv.rhs, rv.w)

		// Ratio test. x_B moves at rate −σ·w per unit of entering movement.
		bestT := math.Inf(1)
		leave := -1
		landAt := vsLower
		tOwn := math.Inf(1)
		if !math.IsInf(sf.hi[enter], 1) && !math.IsInf(sf.lo[enter], -1) {
			tOwn = sf.hi[enter] - sf.lo[enter] // own-bound flip
		}
		if phase1 && !useBland {
			// Long-step (piecewise-linear) phase-1 ratio test. The sum of
			// infeasibilities is piecewise linear along the entering
			// direction: every basic crossing a bound bends the slope up by
			// |rate|. Walking breakpoints in t-order and stopping only where
			// the slope turns non-negative lets one pivot repair hundreds of
			// violated rows — e.g. the MLU utilization column lifting every
			// capacity row at once — where a nearest-blocker rule would burn
			// one pivot per row. Under Bland's rule the classic test below
			// runs instead (its termination proof needs nearest blocking).
			bps := rv.bps[:0]
			push := func(t, gain float64, row int, land vstatus) {
				if t < 0 {
					t = 0
				}
				bps = append(bps, ratioBP{t: t, gain: gain, row: row, land: land})
			}
			for i := 0; i < m; i++ {
				wi := rv.w[i]
				if wi > -rsPivotTol && wi < rsPivotTol {
					continue
				}
				rate := -sigma * wi
				bi := rv.basis[i]
				l, h := sf.lo[bi], sf.hi[bi]
				gain := math.Abs(rate)
				switch {
				case rv.infeas[i] == -1 && rate > 0: // below lower, healing up
					push((l-rv.xB[i])/rate, gain, i, vsLower)
					if !math.IsInf(h, 1) {
						push((h-rv.xB[i])/rate, gain, i, vsUpper)
					}
				case rv.infeas[i] == 1 && rate < 0: // above upper, healing down
					push((h-rv.xB[i])/rate, gain, i, vsUpper)
					if !math.IsInf(l, -1) {
						push((l-rv.xB[i])/rate, gain, i, vsLower)
					}
				case rv.infeas[i] == 0 && rate > 0 && !math.IsInf(h, 1):
					push((h-rv.xB[i])/rate, gain, i, vsUpper)
				case rv.infeas[i] == 0 && rate < 0 && !math.IsInf(l, -1):
					push((l-rv.xB[i])/rate, gain, i, vsLower)
				}
			}
			rv.bps = bps
			// Equal-t ties favor the larger |rate| (= |w|): the slope flips
			// at the same step either way, and the bigger pivot is the
			// numerically safer basis exchange.
			sort.Slice(bps, func(a, b int) bool {
				if bps[a].t != bps[b].t {
					return bps[a].t < bps[b].t
				}
				return bps[a].gain > bps[b].gain
			})
			slope := -best
			lastK := -1
			for k := range bps {
				if bps[k].t >= tOwn {
					break
				}
				lastK = k
				slope += bps[k].gain
				if slope >= -1e-12 {
					bestT, leave, landAt = bps[k].t, bps[k].row, bps[k].land
					break
				}
			}
			if leave < 0 {
				if !math.IsInf(tOwn, 1) {
					bestT = tOwn // bound flip absorbs the still-negative slope
				} else if lastK >= 0 {
					// Exact arithmetic guarantees the slope turns non-negative
					// within the breakpoint list, but rows filtered at
					// rsPivotTol contribute to the reduced cost and not to the
					// walk. Stop at the final breakpoint rather than declaring
					// the direction unblocked: the step still strictly reduces
					// the infeasibility sum and the pivot element passed the
					// stability filter.
					bestT, leave, landAt = bps[lastK].t, bps[lastK].row, bps[lastK].land
				}
			}
		} else {
			if !math.IsInf(tOwn, 1) {
				bestT = tOwn
			}
			for i := 0; i < m; i++ {
				wi := rv.w[i]
				if wi > -rsPivotTol && wi < rsPivotTol {
					continue
				}
				rate := -sigma * wi
				bi := rv.basis[i]
				l, h := sf.lo[bi], sf.hi[bi]
				var t float64
				var land vstatus
				switch rv.infeas[i] {
				case -1: // below lower: blocks only moving up, at the lower bound
					if rate <= 0 {
						continue
					}
					t, land = (l-rv.xB[i])/rate, vsLower
				case 1: // above upper: blocks only moving down, at the upper bound
					if rate >= 0 {
						continue
					}
					t, land = (h-rv.xB[i])/rate, vsUpper
				default:
					if rate > 0 {
						if math.IsInf(h, 1) {
							continue
						}
						t, land = (h-rv.xB[i])/rate, vsUpper
					} else {
						if math.IsInf(l, -1) {
							continue
						}
						t, land = (l-rv.xB[i])/rate, vsLower
					}
				}
				if t < 0 {
					t = 0
				}
				if t < bestT-eps {
					bestT, leave, landAt = t, i, land
				} else if t < bestT+eps && leave >= 0 {
					// Tie-break: Bland prefers the lowest basis column (provable
					// termination); otherwise prefer the biggest pivot element.
					if useBland {
						if rv.basis[i] < rv.basis[leave] {
							bestT, leave, landAt = t, i, land
						}
					} else if math.Abs(wi) > math.Abs(rv.w[leave]) {
						bestT, leave, landAt = t, i, land
					}
				}
			}
		}

		if math.IsInf(bestT, 1) {
			if phase1 {
				// The infeasibility sum is bounded below, so an unblocked
				// improving ray is numerical noise: refresh and retry. With
				// factors already fresh a retry would repeat the identical
				// iteration forever — give up instead.
				if rv.f.nEtas() == 0 {
					return StatusIterLimit, p1, p2
				}
				if !rv.refactor(stats) {
					return StatusIterLimit, p1, p2
				}
				continue
			}
			return StatusUnbounded, p1, p2
		}

		// Stall bookkeeping mirrors the dense oracle: a run of degenerate
		// steps longer than the window engages Bland's rule.
		if bestT <= stallEps {
			stall++
			if stall >= window && !useBland {
				useBland = true
				continue
			}
		} else {
			stall = 0
			useBland = false
		}

		if phase1 {
			p1++
		} else {
			p2++
		}

		if leave < 0 {
			// Bound flip: the entering variable crosses its box, no basis
			// change.
			for i := 0; i < m; i++ {
				if wi := rv.w[i]; wi != 0 {
					rv.xB[i] -= sigma * bestT * wi
				}
			}
			if rv.vstat[enter] == vsUpper {
				rv.vstat[enter] = vsLower
			} else {
				rv.vstat[enter] = vsUpper
			}
			continue
		}

		if math.Abs(rv.w[leave]) < etaPivotTol {
			// Unstable pivot: refresh the factors and retry the iteration
			// (the recomputed column is usually healthier). A fresh
			// factorization that still produces no stable pivot gives up.
			if rv.f.nEtas() == 0 {
				return StatusIterLimit, p1, p2
			}
			if !rv.refactor(stats) {
				return StatusIterLimit, p1, p2
			}
			if phase1 {
				p1--
			} else {
				p2--
			}
			continue
		}

		vEnter := rv.value(enter) + sigma*bestT
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			if wi := rv.w[i]; wi != 0 {
				rv.xB[i] -= sigma * bestT * wi
			}
		}
		left := rv.basis[leave]
		rv.basis[leave] = int32(enter)
		rv.vstat[enter] = vsBasic
		rv.vstat[left] = landAt
		rv.xB[leave] = vEnter
		if !rv.f.appendEta(rv.w, leave) {
			// Pivot too small for a stable eta: rebuild factors from the
			// already-updated basis instead.
			if !rv.refactor(stats) {
				return StatusIterLimit, p1, p2
			}
		}
	}
	return StatusIterLimit, p1, p2
}

// dual runs the bounded-variable dual simplex from a dual-feasible basis,
// driving out primal bound violations one leaving row at a time. It is the
// bound-tightening continuation: a branch-and-bound bound edit leaves reduced
// costs untouched, so the retained basis re-solves in however many pivots
// the violations need instead of a cold restart.
func (rv *revised) dual(stats *SolverStats, maxIter int, deadline time.Time) (Status, int) {
	sf := &rv.sf
	m := sf.m
	pivots := 0
	refactorEvery := rv.refactorEvery
	rv.alpha = growF(rv.alpha, sf.ncols)
	rv.dred = growF(rv.dred, sf.ncols)
	stall := 0
	window := stallWindow
	if 2*m > window {
		window = 2 * m
	}
	blandish := false

	for iter := 0; iter < maxIter; iter++ {
		if !deadline.IsZero() && iter%64 == 0 && time.Now().After(deadline) {
			return StatusIterLimit, pivots
		}
		if rv.f.nEtas() >= refactorEvery {
			if !rv.refactor(stats) {
				return StatusIterLimit, pivots
			}
		}

		// Leaving row: the worst bound violation.
		leave := -1
		worst := primalTol
		toLower := false
		for i, bi := range rv.basis {
			if v := sf.lo[bi] - rv.xB[i]; v > worst {
				worst, leave, toLower = v, i, true
			}
			if v := rv.xB[i] - sf.hi[bi]; v > worst {
				worst, leave, toLower = v, i, false
			}
		}
		if leave < 0 {
			return StatusOptimal, pivots
		}

		// Reduced costs (fresh each pivot: the dual ratio test needs them
		// exact, and recomputing dodges incremental drift).
		for i, bi := range rv.basis {
			rv.cb[i] = sf.cost[bi]
		}
		rv.f.btran(rv.cb, rv.y)
		// Tableau row: alpha_j = (B⁻ᵀ e_leave)·a_j.
		for i := range rv.cb {
			rv.cb[i] = 0
		}
		rv.cb[leave] = 1
		rho := rv.rhs // reuse as the row-space unit solve
		rv.f.btran(rv.cb, rho)

		enter := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		for j := 0; j < sf.ncols; j++ {
			if rv.vstat[j] == vsBasic || sf.lo[j] == sf.hi[j] {
				continue
			}
			a := sf.dotColumn(rho, j)
			if a > -rsPivotTol && a < rsPivotTol {
				continue
			}
			// Direction filter: the entering variable must move off its
			// bound in the direction that repairs the leaving row.
			ok := false
			switch rv.vstat[j] {
			case vsLower:
				ok = (toLower && a < 0) || (!toLower && a > 0)
			case vsUpper:
				ok = (toLower && a > 0) || (!toLower && a < 0)
			case vsFree:
				ok = true
			}
			if !ok {
				continue
			}
			d := sf.cost[j] - sf.dotColumn(rv.y, j)
			// Dual feasibility makes d·(sign) ≥ 0; numerical noise is
			// clamped so ratios stay non-negative.
			r := math.Abs(d) / math.Abs(a)
			if rv.vstat[j] == vsFree {
				r = 0 // free variables have zero reduced cost at optimality
			}
			if r < bestRatio-eps || (r < bestRatio+eps && (blandish && enter >= 0 && j < enter || !blandish && math.Abs(a) > bestAlpha)) || enter < 0 {
				bestRatio, enter, bestAlpha = r, j, math.Abs(a)
			}
		}
		if enter < 0 {
			// Dual unbounded: no entering column can repair the violated
			// row — the primal is infeasible.
			return StatusInfeasible, pivots
		}

		// FTRAN the entering column for the update.
		for i := range rv.rhs {
			rv.rhs[i] = 0
		}
		sf.scatterColumn(rv.rhs, enter, 1)
		rv.f.ftran(rv.rhs, rv.w)
		if math.Abs(rv.w[leave]) < etaPivotTol {
			if rv.f.nEtas() == 0 {
				return StatusIterLimit, pivots
			}
			if !rv.refactor(stats) {
				return StatusIterLimit, pivots
			}
			continue
		}

		left := rv.basis[leave]
		target := sf.hi[left]
		land := vsUpper
		if toLower {
			target, land = sf.lo[left], vsLower
		}
		delta := (rv.xB[leave] - target) / rv.w[leave]
		if math.Abs(delta) <= stallEps {
			stall++
			if stall >= window {
				blandish = true
			}
		} else {
			stall = 0
			blandish = false
		}
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			if wi := rv.w[i]; wi != 0 {
				rv.xB[i] -= delta * wi
			}
		}
		rv.basis[leave] = int32(enter)
		vEnter := rv.value(enter) + delta
		rv.vstat[enter] = vsBasic
		rv.vstat[left] = land
		rv.xB[leave] = vEnter
		pivots++
		if stats != nil {
			stats.DualPivots.Add(1)
			stats.Pivots.Add(1)
		}
		if !rv.f.appendEta(rv.w, leave) {
			if !rv.refactor(stats) {
				return StatusIterLimit, pivots
			}
		}
	}
	return StatusIterLimit, pivots
}

// extract maps the engine state to a Solution in model space.
func (rv *revised) extract(p *Problem, sol *Solution) {
	sf := &rv.sf
	sol.X = make([]float64, sf.n)
	for j := 0; j < sf.n; j++ {
		if rv.vstat[j] != vsBasic {
			sol.X[j] = rv.value(j)
		}
	}
	for i, bi := range rv.basis {
		if int(bi) < sf.n {
			sol.X[bi] = rv.xB[i]
		}
	}
	obj := p.objExpr.Const
	for _, t := range p.objExpr.Terms {
		obj += t.Coeff * sol.X[t.Var]
	}
	sol.Objective = obj
}
