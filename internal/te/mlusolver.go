package te

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/paths"
)

// StatusError reports an LP that finished without an optimal solution. It is
// a typed error so callers can distinguish a solver outcome (infeasible,
// unbounded, iteration/deadline limit) from malformed input: the search
// engine treats it as a rejected evaluation step, never as a usable MLU.
type StatusError struct {
	// Op names the LP that failed (e.g. "optimal MLU").
	Op string
	// Status is the solver's verdict.
	Status lp.Status
}

// Error implements error.
func (e *StatusError) Error() string { return fmt.Sprintf("te: %s LP %v", e.Op, e.Status) }

// MLUSolver computes optimal-MLU LPs for one path set, reusing everything
// that does not depend on the traffic matrix: the edge→path-slot incidence,
// the lp.Problem (Reset-rebuilt per solve, allocation-free in steady state)
// and the lp.Solver's workspace. Every solve is cold, so the optimum and the
// splits are a function of the traffic matrix alone — never of which matrix
// a pooled solver saw before, or of when the garbage collector emptied the
// pool. The performance ratio divides by this optimum, so its last bit must
// not depend on solve history.
//
// MLUSolver is safe for concurrent use: each Solve borrows an independent
// (Problem, Solver) pair from an internal pool, so parallel searchers never
// serialize on a shared solver.
type MLUSolver struct {
	ps *paths.PathSet

	offsets []int
	total   int
	// edgeSlots[e] lists the path slots crossing edge e; edgeSlotPair[e][j]
	// is the demand pair of edgeSlots[e][j].
	edgeSlots    [][]int
	edgeSlotPair [][]int
	caps         []float64

	pool sync.Pool // of *mluState

	// stats aggregates the per-borrow counter deltas of every pooled
	// lp.Solver into one cumulative view (the pool itself cannot be
	// iterated, so each borrow folds its own delta in on return).
	stats lp.SolverStats
	// obsReg, when set, is handed to each borrowed solver so per-solve
	// latency/pivot histograms land in one shared registry.
	obsReg atomic.Pointer[obs.Registry]
}

// Stats returns the aggregated LP solve counters across every pooled solver
// this MLUSolver has borrowed. Safe to call concurrently with solves.
func (s *MLUSolver) Stats() lp.SolverStatsSnapshot { return s.stats.Snapshot() }

// SetObs routes per-solve LP telemetry ("lp.solve.ms", "lp.solve.pivots")
// from every pooled solver into reg. Pass nil to disable. Safe to call
// concurrently with solves; in-flight borrows keep the registry they
// started with.
func (s *MLUSolver) SetObs(reg *obs.Registry) { s.obsReg.Store(reg) }

// mluState is the per-borrow workspace of one in-flight solve.
type mluState struct {
	prob   *lp.Problem
	solver *lp.Solver
	xs     []lp.VarID
	expr   *lp.Expr
}

// NewMLUSolver builds the reusable incidence structures for ps.
func NewMLUSolver(ps *paths.PathSet) *MLUSolver {
	offsets, total := ps.Offsets()
	g := ps.Graph
	s := &MLUSolver{
		ps:           ps,
		offsets:      offsets,
		total:        total,
		edgeSlots:    make([][]int, g.NumEdges()),
		edgeSlotPair: make([][]int, g.NumEdges()),
		caps:         make([]float64, g.NumEdges()),
	}
	for e := 0; e < g.NumEdges(); e++ {
		s.caps[e] = g.Edge(e).Capacity
	}
	for i, pp := range ps.PairPaths {
		for k, path := range pp {
			slot := offsets[i] + k
			for _, eid := range path.Edges {
				s.edgeSlots[eid] = append(s.edgeSlots[eid], slot)
				s.edgeSlotPair[eid] = append(s.edgeSlotPair[eid], i)
			}
		}
	}
	s.pool.New = func() any {
		return &mluState{
			prob:   lp.NewProblem(),
			solver: lp.NewSolver(),
			xs:     make([]lp.VarID, total),
			expr:   lp.NewExpr(),
		}
	}
	return s
}

// Solve returns the optimal MLU and optimal splits for tm (pairs with zero
// demand get their full split on the first path).
func (s *MLUSolver) Solve(tm TrafficMatrix) (float64, Splits, error) {
	return s.SolveCtx(context.Background(), tm)
}

// SolveCtx is Solve under a caller-controlled context. The context's
// deadline, when set, is mapped onto lp.Problem.Deadline so the simplex
// itself stops pivoting once time is up (polled every 64 pivots); an expired
// or cancelled context surfaces as ctx.Err() rather than a StatusError, so
// callers can tell "the caller's budget ran out" apart from "this LP is
// genuinely stuck".
func (s *MLUSolver) SolveCtx(ctx context.Context, tm TrafficMatrix) (float64, Splits, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if len(tm) != s.ps.NumPairs() {
		return 0, nil, fmt.Errorf("te: traffic matrix has %d entries, want %d", len(tm), s.ps.NumPairs())
	}
	st := s.pool.Get().(*mluState)
	st.solver.Obs = s.obsReg.Load()
	before := st.solver.Stats.Snapshot()
	defer func() {
		s.stats.AddSnapshot(st.solver.Stats.Snapshot().Sub(before))
		s.pool.Put(st)
	}()

	p := st.prob
	p.Reset()
	// Reset preserves Deadline across borrows, so set it explicitly each
	// solve: the ctx deadline when there is one, cleared otherwise (a stale
	// deadline from a previous time-boxed borrow must not leak into this one).
	if dl, ok := ctx.Deadline(); ok {
		p.Deadline = dl
	} else {
		p.Deadline = time.Time{}
	}
	u := p.AddVariable("u", 0, math.Inf(1))
	xs := st.xs
	for i, pp := range s.ps.PairPaths {
		if tm[i] == 0 {
			continue
		}
		if len(pp) == 0 {
			return 0, nil, fmt.Errorf("te: pair %d has demand %g but no paths", i, tm[i])
		}
		norm := st.expr.Reset()
		for k := range pp {
			// No explicit upper bound: the normalization row already caps
			// each split at one.
			xs[s.offsets[i]+k] = p.AddVariable("", 0, math.Inf(1))
			norm.Add(1, xs[s.offsets[i]+k])
		}
		p.AddConstraint("", norm, lp.EQ, 1)
	}
	// Per-edge: Σ d_i x_{i,k} [e on path] − u·cap_e ≤ 0.
	for e, slots := range s.edgeSlots {
		expr := st.expr.Reset()
		any := false
		for j, slot := range slots {
			pair := s.edgeSlotPair[e][j]
			if tm[pair] == 0 {
				continue
			}
			expr.Add(tm[pair], xs[slot])
			any = true
		}
		if !any {
			continue
		}
		expr.Add(-s.caps[e], u)
		p.AddConstraint("", expr, lp.LE, 0)
	}
	p.SetObjective(lp.Minimize, st.expr.Reset().Add(1, u))
	sol := st.solver.Solve(p)
	if sol.Status != lp.StatusOptimal {
		// A deadline-limited solve under an expired context is the context
		// firing, not a property of this LP.
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		// The simplex reads the clock itself, so it can see the deadline
		// pass before the context's timer has fired: that is still the
		// deadline, not a stuck LP.
		if dl, ok := ctx.Deadline(); ok && sol.Status == lp.StatusIterLimit && !time.Now().Before(dl) {
			return 0, nil, context.DeadlineExceeded
		}
		return 0, nil, &StatusError{Op: "optimal MLU", Status: sol.Status}
	}
	splits := make(Splits, s.total)
	for i, pp := range s.ps.PairPaths {
		if tm[i] == 0 {
			if len(pp) > 0 {
				splits[s.offsets[i]] = 1
			}
			continue
		}
		for k := range pp {
			splits[s.offsets[i]+k] = sol.Value(xs[s.offsets[i]+k])
		}
	}
	return sol.Objective, splits, nil
}

// mluSolverKey is the paths.PathSet.Memo key of a path set's shared
// MLUSolver.
type mluSolverKey struct{}

// solverFor returns ps's shared MLUSolver — the one package-level
// OptimalMLU and the search engines use — building it on first use. It is
// memoized on the path set itself, so it (with its pooled workspace) is
// collected together with ps.
func solverFor(ps *paths.PathSet) *MLUSolver {
	return ps.Memo(mluSolverKey{}, func() any { return NewMLUSolver(ps) }).(*MLUSolver)
}

// InstrumentSolver routes LP telemetry for ps's shared MLUSolver into reg.
// Creates the solver if it does not exist yet, so instrumenting before the
// first solve works.
func InstrumentSolver(ps *paths.PathSet, reg *obs.Registry) {
	solverFor(ps).SetObs(reg)
}

// SolverStatsFor returns the cumulative LP solve counters of ps's shared
// MLUSolver. Callers scraping deltas should Sub two scrapes.
func SolverStatsFor(ps *paths.PathSet) lp.SolverStatsSnapshot {
	return solverFor(ps).Stats()
}
