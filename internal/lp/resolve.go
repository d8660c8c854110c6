package lp

import "time"

// This file implements the RHS-delta re-solve path: when a problem is solved
// repeatedly and only its constraint right-hand sides change between solves
// (the exact shape of finite-difference probes on the optimal-MLU LP, whose
// flow formulation keeps demands purely in b), the previous optimal basis B
// remains DUAL feasible — the reduced costs c − c_B B⁻¹A do not involve b at
// all. It therefore remains optimal if and only if it is still primal
// feasible under the new b; when it is not, the dual simplex repairs the
// bound violations in a few pivots instead of a warm/cold restart.

// ResolveRHS re-solves p assuming ONLY constraint right-hand sides changed
// since the last successful solve on this solver. It recomputes x_B under the
// new b from the retained factors: a still-primal-feasible basis is a
// zero-pivot hit, an infeasible one goes to the dual simplex. When no basis
// is retained, the retained form belongs to a different Problem, or the dual
// simplex ends anything but optimal, it falls back to Solve's normal
// warm/cold path, which is always correct.
//
// Contract: between the cached solve and this call, the caller must not have
// changed variable count or bounds, constraint count, relations,
// coefficients, or the objective (use SetConstraintRHS for the intended
// mutation). The fast path cannot detect coefficient edits and would return
// a stale vertex; shape edits are caught by the fingerprint and fall back.
func (s *Solver) ResolveRHS(p *Problem) *Solution {
	rv := s.rev
	// The sfProb identity check matters beyond hygiene: rebuildRHS refreshes
	// only b, so a retained form built from a DIFFERENT problem of the same
	// shape (possible once bases can be loaded into pooled solvers) would
	// silently keep that problem's matrix and costs.
	if rv == nil || !rv.valid || rv.sfProb != p || len(p.vars) != rv.nv || len(p.cons) != rv.nc {
		return s.Solve(p)
	}
	s.Stats.RHSAttempts.Add(1)
	var t0 time.Time
	if s.Obs != nil {
		t0 = time.Now()
	}
	rv.sf.rebuildRHS(p)
	rv.computeXB()

	dualPivots := 0
	if !rv.primalFeasible() {
		maxIter := p.MaxIter
		if maxIter == 0 {
			maxIter = 100*(rv.sf.m+10) + rv.sf.ncols
		}
		st, dp := rv.dual(&s.Stats, maxIter, p.Deadline)
		dualPivots = dp
		if st != StatusOptimal {
			// Includes genuine infeasibility: re-derive it through the full
			// path rather than trusting a tolerance-filtered dual verdict.
			rv.valid = false
			return s.Solve(p)
		}
		s.Stats.DualResolves.Add(1)
		s.Stats.EtaLen.Store(int64(rv.f.nEtas()))
	} else {
		s.Stats.RHSHits.Add(1)
	}

	s.Stats.Solves.Add(1)
	sol := &Solution{Status: StatusOptimal}
	rv.extract(p, sol)
	if s.Obs != nil {
		s.Obs.Histogram("lp.rhs.ms").Observe(float64(time.Since(t0)) / float64(time.Millisecond))
		if dualPivots > 0 {
			s.Obs.Histogram("lp.rhs.dual_pivots").Observe(float64(dualPivots))
		}
	}
	return sol
}
