package lp

import "time"

// This file holds the variable-bound warm re-solve path (ResolveBounds) and
// the basis snapshot API (Basis / SaveBasis / LoadBasis) built for
// branch-and-bound: a MILP child node differs from its parent by a single
// tightened variable bound, and in the bounded-variable revised simplex a
// bound change leaves costs and the constraint matrix untouched — the
// retained optimal basis stays DUAL feasible by construction, so the dual
// simplex repairs the (at most one) primal bound violation in a handful of
// pivots instead of a full phase-1/phase-2 cold solve.

// Basis is a reusable snapshot of the revised engine's basis: which columns
// are basic (ordered as factorized) and every column's nonbasic status, plus
// the problem-shape fingerprint it belongs to. It deliberately excludes
// numeric factors — LoadBasis re-factorizes from scratch, so a solve started
// from a snapshot is a pure function of (problem, snapshot), independent of
// the loading solver's history. That property is what makes parallel
// branch-and-bound deterministic: any worker handed the same (node bounds,
// parent basis) pair computes bitwise-identical pivots.
type Basis struct {
	basis  []int32
	vstat  []vstatus
	nv, nc int
}

// SaveBasis copies the solver's current basis into b (reusing b's buffers)
// and reports whether a snapshot was available — it is only after a
// successful solve. Failed solves return false and leave b unchanged.
func (s *Solver) SaveBasis(b *Basis) bool {
	rv := s.rev
	if rv == nil || !rv.valid {
		return false
	}
	b.basis = append(b.basis[:0], rv.basis...)
	b.vstat = append(b.vstat[:0], rv.vstat...)
	b.nv, b.nc = rv.nv, rv.nc
	return true
}

// LoadBasis installs a snapshot as the solver's retained basis, so the next
// ResolveBounds warm-starts from it. The partial-pricing cursor is reset
// along with the load: together with the fresh factorization ResolveBounds
// performs, this erases every trace of the solver's prior pivot history,
// which keeps warm node solves reproducible across workers.
// Reports false for an empty (never-saved) snapshot.
func (s *Solver) LoadBasis(b *Basis) bool {
	if b == nil || (b.nv == 0 && len(b.basis) == 0) {
		return false
	}
	if s.rev == nil {
		s.rev = &revised{}
	}
	rv := s.rev
	rv.basis = append(rv.basis[:0], b.basis...)
	rv.vstat = append(rv.vstat[:0], b.vstat...)
	rv.nv, rv.nc = b.nv, b.nc
	rv.cursor = 0
	rv.valid = true
	return true
}

// ResolveBounds re-solves p after a variable-bound-only mutation, reusing
// the retained basis. Contract: since the last successful solve (or
// LoadBasis), only variable bounds may have changed — costs, coefficients,
// relations, and the RHS must be untouched.
//
// Fast path: refresh the bound arrays of the computational form, normalize
// nonbasic statuses against the new bounds, re-factorize, and check primal
// feasibility. A still-feasible basis is a zero-pivot hit; an infeasible one
// goes to the dual simplex, which is warranted to start dual feasible when
// no status changed (bounds don't enter reduced costs). A conclusive dual
// verdict — optimal or infeasible — is returned directly; anything else
// (iteration/deadline limits, singular basis, shape mismatch, status repair
// that broke dual feasibility) falls back to Solve, a cold solve that is
// always correct.
//
// The re-factorization is unconditional, not an optimization opportunity:
// starting every bound re-solve from a clean LU of the loaded basis (rather
// than an inherited eta file) is what makes the result independent of the
// solver's history — see Basis.
func (s *Solver) ResolveBounds(p *Problem) *Solution {
	rv := s.rev
	if rv == nil || !rv.valid || rv.nv != len(p.vars) || rv.nc != len(p.cons) || len(p.cons) == 0 {
		return s.Solve(p)
	}
	s.Stats.BoundAttempts.Add(1)
	var t0 time.Time
	if s.Obs != nil {
		t0 = time.Now()
	}
	rv.refactorEvery = s.RefactorEvery
	if rv.refactorEvery <= 0 {
		rv.refactorEvery = DefaultRefactorEvery
	}
	if rv.sfProb != p {
		// Basis loaded into a solver that has not built THIS problem's form —
		// a pooled worker's first node, or a pooled solver whose previous
		// problem happened to share p's shape. Identity, not shape, is the
		// test: an incremental bound refresh on another problem's matrix
		// would silently solve the wrong LP. The form is a pure function of
		// p, so the full build is bitwise identical to a refresh.
		rv.sf.build(p)
		rv.sfProb = p
	} else {
		rv.sf.rebuildBounds(p)
	}
	if rv.sf.m != len(p.cons) || len(rv.basis) != rv.sf.m || len(rv.vstat) != rv.sf.ncols {
		rv.valid = false
		return s.Solve(p)
	}
	rv.growState()
	rv.normalizeStatuses()
	if !rv.refactor(&s.Stats) {
		rv.valid = false
		return s.Solve(p)
	}
	if !rv.dualFeasible() {
		// Pure tightenings preserve dual feasibility (reduced costs don't
		// see bounds, and fixing a column only relaxes its sign condition),
		// so branch-and-bound never takes this exit. Generic callers can:
		// widening can UNFIX a column whose reduced cost was unconstrained
		// while lo == hi, and a status repair can move a variable off a
		// vanished bound. The check is one BTRAN plus a column sweep —
		// cheap next to the refactorization — so it runs unconditionally
		// rather than trusting the caller's mutation discipline.
		rv.valid = false
		return s.Solve(p)
	}
	dualPivots := 0
	if !rv.primalFeasible() {
		maxIter := p.MaxIter
		if maxIter == 0 {
			maxIter = 100*(rv.sf.m+10) + rv.sf.ncols
		}
		st, dp := rv.dual(&s.Stats, maxIter, p.Deadline)
		dualPivots = dp
		switch st {
		case StatusOptimal:
			s.Stats.DualResolves.Add(1)
		case StatusInfeasible:
			// Trust the dual's infeasibility proof: for branch-and-bound this
			// is the common "tightening emptied the node" outcome, and
			// re-deriving it cold would erase the warm-start win.
			rv.valid = false
			s.Stats.Solves.Add(1)
			s.Stats.BoundHits.Add(1)
			s.Stats.EtaLen.Store(int64(rv.f.nEtas()))
			if s.Obs != nil {
				s.Obs.Histogram("lp.bounds.ms").Observe(float64(time.Since(t0)) / float64(time.Millisecond))
				s.Obs.Histogram("lp.bounds.dual_pivots").Observe(float64(dualPivots))
			}
			return &Solution{Status: StatusInfeasible}
		default:
			rv.valid = false
			return s.Solve(p)
		}
	}
	s.Stats.Solves.Add(1)
	s.Stats.BoundHits.Add(1)
	s.Stats.EtaLen.Store(int64(rv.f.nEtas()))
	sol := &Solution{Status: StatusOptimal}
	rv.extract(p, sol)
	if s.Obs != nil {
		s.Obs.Histogram("lp.bounds.ms").Observe(float64(time.Since(t0)) / float64(time.Millisecond))
		if dualPivots > 0 {
			s.Obs.Histogram("lp.bounds.dual_pivots").Observe(float64(dualPivots))
		}
	}
	return sol
}
