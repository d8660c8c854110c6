package te

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/paths"
)

// DeltaMLUSolver computes optimal MLUs for a sequence of traffic matrices on
// one path set using the flow formulation
//
//	min u  s.t.  Σ_k f_{i,k} ≥ d_i   (one GE row per pair)
//	             Σ f on e − cap_e·u ≤ 0   (one LE row per edge)
//
// whose coefficient matrix is DEMAND-INDEPENDENT: changing the traffic
// matrix only changes the right-hand side b. The solver is therefore built
// exactly once and every subsequent Solve goes through lp.Solver.ResolveRHS,
// which reuses the factorized optimal basis with zero pivots whenever it
// stays primal feasible under the new demands — the common case for the
// single-coordinate deltas of finite-difference probes.
//
// The GE relaxation is exact: any feasible point of the paper's EQ
// formulation (splits summing to one) scales to a feasible flow with the
// same u, and conversely scaling an over-delivering flow down to equality
// never increases a link load — so the two optima coincide, and Splits are
// recovered as f_{i,k}/Σ_k f_{i,k}.
//
// Zero-demand pairs keep their rows (Σf ≥ 0 is trivially satisfiable), which
// is what keeps the structure fingerprint stable across matrices. Pairs with
// no paths are rejected if they ever carry demand.
//
// Not safe for concurrent use (the point is a single resident basis);
// independent instances are independent. Use MLUSolver for the pooled
// concurrent path.
type DeltaMLUSolver struct {
	ps      *paths.PathSet
	offsets []int
	total   int

	prob      *lp.Problem
	solver    *lp.Solver
	u         lp.VarID
	fs        []lp.VarID // per path slot
	demandCon []int      // per pair: constraint index of its GE row (-1 if no paths)

	solved bool
}

// NewDeltaMLUSolver builds the demand-independent flow LP for ps.
func NewDeltaMLUSolver(ps *paths.PathSet) *DeltaMLUSolver {
	offsets, total := ps.Offsets()
	g := ps.Graph
	s := &DeltaMLUSolver{
		ps:        ps,
		offsets:   offsets,
		total:     total,
		prob:      lp.NewProblem(),
		solver:    lp.NewSolver(),
		fs:        make([]lp.VarID, total),
		demandCon: make([]int, ps.NumPairs()),
	}
	p := s.prob
	s.u = p.AddVariable("u", 0, math.Inf(1))
	expr := lp.NewExpr()
	for i, pp := range ps.PairPaths {
		if len(pp) == 0 {
			s.demandCon[i] = -1
			continue
		}
		expr.Reset()
		for k := range pp {
			s.fs[offsets[i]+k] = p.AddVariable("", 0, math.Inf(1))
			expr.Add(1, s.fs[offsets[i]+k])
		}
		s.demandCon[i] = p.AddConstraint("", expr, lp.GE, 0)
	}
	for e := 0; e < g.NumEdges(); e++ {
		expr.Reset()
		any := false
		for i, pp := range ps.PairPaths {
			for k, path := range pp {
				for _, eid := range path.Edges {
					if eid == e {
						expr.Add(1, s.fs[offsets[i]+k])
						any = true
						break
					}
				}
			}
		}
		if !any {
			continue
		}
		expr.Add(-g.Edge(e).Capacity, s.u)
		p.AddConstraint("", expr, lp.LE, 0)
	}
	p.SetObjective(lp.Minimize, expr.Reset().Add(1, s.u))
	return s
}

// SetObs routes the solver's LP telemetry (including "lp.rhs.ms") into reg;
// nil disables.
func (s *DeltaMLUSolver) SetObs(reg *obs.Registry) { s.solver.Obs = reg }

// Stats returns the underlying solver's counters; RHSAttempts/RHSHits
// distinguish the rhs fast path from warm and cold solves.
func (s *DeltaMLUSolver) Stats() lp.SolverStatsSnapshot { return s.solver.Stats.Snapshot() }

// Solve returns the optimal MLU and optimal splits for tm. The first call
// solves cold; later calls update only the demand rows' right-hand sides and
// go through ResolveRHS.
func (s *DeltaMLUSolver) Solve(tm TrafficMatrix) (float64, Splits, error) {
	if len(tm) != s.ps.NumPairs() {
		return 0, nil, fmt.Errorf("te: traffic matrix has %d entries, want %d", len(tm), s.ps.NumPairs())
	}
	for i, d := range tm {
		ci := s.demandCon[i]
		if ci < 0 {
			if d != 0 {
				return 0, nil, fmt.Errorf("te: pair %d has demand %g but no paths", i, d)
			}
			continue
		}
		s.prob.SetConstraintRHS(ci, d)
	}
	var sol *lp.Solution
	if s.solved {
		sol = s.solver.ResolveRHS(s.prob)
	} else {
		sol = s.solver.Solve(s.prob)
	}
	if sol.Status != lp.StatusOptimal {
		return 0, nil, &StatusError{Op: "optimal MLU (delta)", Status: sol.Status}
	}
	s.solved = true

	splits := make(Splits, s.total)
	for i, pp := range s.ps.PairPaths {
		if len(pp) == 0 {
			continue
		}
		base := s.offsets[i]
		sum := 0.0
		for k := range pp {
			sum += sol.Value(s.fs[base+k])
		}
		if sum <= 0 {
			splits[base] = 1 // zero-demand pair: degenerate but valid splits
			continue
		}
		for k := range pp {
			splits[base+k] = sol.Value(s.fs[base+k]) / sum
		}
	}
	return sol.Objective, splits, nil
}
