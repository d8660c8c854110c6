package lp

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// SolverStats counts solve outcomes (cumulative). The fields are atomic so
// the metrics layer can scrape a solver's stats while solves are in flight:
// Solve mutates these counters on every call, and a plain-int version of
// this struct was a data race against any concurrent reader. Read individual
// fields with Load, or take a coherent view with Snapshot.
type SolverStats struct {
	// Solves is the total number of Solve calls.
	Solves atomic.Int64
	// ColdSolves counts full two-phase solves: every Solve that reaches the
	// simplex (m > 0), whether called directly or as a ResolveBounds
	// fallback.
	ColdSolves atomic.Int64
	// Pivots is the total number of simplex pivots across all solves: both
	// phases of Solve plus ResolveBounds' dual pivots.
	Pivots atomic.Int64
	// BoundAttempts counts ResolveBounds calls that reached the revised
	// warm path (a retained basis matched the problem shape).
	BoundAttempts atomic.Int64
	// BoundHits counts ResolveBounds calls completed from the retained
	// factors — zero pivots when the basis stayed primal feasible under the
	// new bounds, or a handful of dual pivots otherwise — without a cold
	// fallback. Conclusive infeasibility verdicts from the dual simplex
	// count as hits: the warm machinery settled the solve.
	BoundHits atomic.Int64
	// Phase1Pivots and Phase2Pivots split Pivots by simplex phase: feasibility
	// restoration vs optimization. Dual pivots are in neither.
	Phase1Pivots atomic.Int64
	Phase2Pivots atomic.Int64
	// DualPivots counts dual-simplex pivots: bound violations repaired from
	// a retained dual-feasible basis instead of a cold restart.
	DualPivots atomic.Int64
	// DualResolves counts ResolveBounds calls completed by the dual simplex —
	// the basis went primal infeasible under the new bounds but was repaired
	// in DualPivots pivots without a cold solve.
	DualResolves atomic.Int64
	// Refactors counts basis refactorizations (periodic RefactorEvery
	// triggers, stability triggers, cold starts and bound re-solves).
	Refactors atomic.Int64
	// EtaLen is a gauge, not a counter: the eta-file length after the most
	// recent solve. Read with Load; Snapshot carries it verbatim and Sub
	// keeps the newer value.
	EtaLen atomic.Int64
}

// Snapshot reads every counter into a plain value. Each field is read
// atomically; the snapshot as a whole is not one atomic cut, which is fine
// for monotone counters (a scrape can be at most one in-flight solve stale).
func (s *SolverStats) Snapshot() SolverStatsSnapshot {
	return SolverStatsSnapshot{
		Solves:        s.Solves.Load(),
		ColdSolves:    s.ColdSolves.Load(),
		Pivots:        s.Pivots.Load(),
		BoundAttempts: s.BoundAttempts.Load(),
		BoundHits:     s.BoundHits.Load(),
		Phase1Pivots:  s.Phase1Pivots.Load(),
		Phase2Pivots:  s.Phase2Pivots.Load(),
		DualPivots:    s.DualPivots.Load(),
		DualResolves:  s.DualResolves.Load(),
		Refactors:     s.Refactors.Load(),
		EtaLen:        s.EtaLen.Load(),
	}
}

// AddSnapshot accumulates d into the counters — used by aggregators (e.g.
// te.MLUSolver) that fold per-borrow deltas from pooled solvers into one
// cumulative view.
func (s *SolverStats) AddSnapshot(d SolverStatsSnapshot) {
	s.Solves.Add(d.Solves)
	s.ColdSolves.Add(d.ColdSolves)
	s.Pivots.Add(d.Pivots)
	s.BoundAttempts.Add(d.BoundAttempts)
	s.BoundHits.Add(d.BoundHits)
	s.Phase1Pivots.Add(d.Phase1Pivots)
	s.Phase2Pivots.Add(d.Phase2Pivots)
	s.DualPivots.Add(d.DualPivots)
	s.DualResolves.Add(d.DualResolves)
	s.Refactors.Add(d.Refactors)
	if d.EtaLen != 0 {
		s.EtaLen.Store(d.EtaLen) // gauge: latest observation wins
	}
}

// SolverStatsSnapshot is a plain-value copy of SolverStats.
type SolverStatsSnapshot struct {
	Solves        int64
	ColdSolves    int64
	Pivots        int64
	BoundAttempts int64
	BoundHits     int64
	Phase1Pivots  int64
	Phase2Pivots  int64
	DualPivots    int64
	DualResolves  int64
	Refactors     int64
	EtaLen        int64 // gauge (see SolverStats.EtaLen)
}

// Sub returns the element-wise difference a − b: the per-interval delta
// between two scrapes of the same cumulative counters.
func (a SolverStatsSnapshot) Sub(b SolverStatsSnapshot) SolverStatsSnapshot {
	return SolverStatsSnapshot{
		Solves:        a.Solves - b.Solves,
		ColdSolves:    a.ColdSolves - b.ColdSolves,
		Pivots:        a.Pivots - b.Pivots,
		BoundAttempts: a.BoundAttempts - b.BoundAttempts,
		BoundHits:     a.BoundHits - b.BoundHits,
		Phase1Pivots:  a.Phase1Pivots - b.Phase1Pivots,
		Phase2Pivots:  a.Phase2Pivots - b.Phase2Pivots,
		DualPivots:    a.DualPivots - b.DualPivots,
		DualResolves:  a.DualResolves - b.DualResolves,
		Refactors:     a.Refactors - b.Refactors,
		EtaLen:        a.EtaLen, // gauge: carry the newer value
	}
}

// Solver runs the sparse bounded-variable revised simplex (revised.go) over
// reusable workspace. Every Solve starts cold from the crash basis, so its
// answer is a function of the Problem alone, never of which problems the
// solver saw before: pooling a Solver reuses memory, not history. The one
// warm entry point is ResolveBounds, which re-solves from an explicitly
// loaded or just-saved basis (see Basis) for branch-and-bound.
//
// A dense two-phase tableau simplex in the test files (dense_oracle_test.go)
// is the equivalence oracle this engine is pinned against.
//
// A Solver is not safe for concurrent use; pool per goroutine.
type Solver struct {
	Stats SolverStats

	// Obs, when non-nil, receives per-solve telemetry: "lp.solve.ms"
	// (wall-clock latency) and "lp.solve.pivots" histograms. Nil costs
	// nothing — no clock reads, no lookups — so solvers are instrumented
	// unconditionally and enabled per run.
	Obs *obs.Registry

	// RefactorEvery bounds the revised engine's eta-file length between basis
	// refactorizations; zero means DefaultRefactorEvery. Smaller values trade
	// refactorization time for FTRAN/BTRAN speed and numerical freshness.
	RefactorEvery int

	// rev is the revised-simplex engine state: workspace reused across
	// solves, plus the last optimal basis for SaveBasis and ResolveBounds.
	rev *revised
}

// NewSolver returns an empty solver.
func NewSolver() *Solver { return &Solver{} }

// solverPool backs Problem.Solve for callers that do not hold their own
// Solver. Pooled solvers keep only workspace: Solve never reads a previous
// basis, so which pooled solver a caller gets cannot change its answer.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

func getPooledSolver() *Solver  { return solverPool.Get().(*Solver) }
func putPooledSolver(s *Solver) { solverPool.Put(s) }

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Solve optimizes p from a cold crash basis (see Solver).
func (s *Solver) Solve(p *Problem) *Solution {
	s.Stats.Solves.Add(1)
	var t0 time.Time
	if s.Obs != nil {
		t0 = time.Now()
	}
	if s.rev == nil {
		s.rev = &revised{}
	}
	rv := s.rev
	rv.refactorEvery = s.RefactorEvery
	if rv.refactorEvery <= 0 {
		rv.refactorEvery = DefaultRefactorEvery
	}

	rv.sf.build(p)
	rv.sfProb = p
	rv.nv, rv.nc = len(p.vars), len(p.cons)
	rv.valid = false
	m := rv.sf.m

	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = 100*(m+10) + rv.sf.ncols
	}

	sol := &Solution{}
	if m == 0 {
		// No constraints: every variable sits at its cost-minimizing bound.
		sol.Status = StatusOptimal
		sol.X = make([]float64, rv.sf.n)
		for j := 0; j < rv.sf.n; j++ {
			c := rv.sf.cost[j]
			lo, hi := rv.sf.lo[j], rv.sf.hi[j]
			switch {
			case c > eps:
				if math.IsInf(lo, -1) {
					sol.Status = StatusUnbounded
					return sol
				}
				sol.X[j] = lo
			case c < -eps:
				if math.IsInf(hi, 1) {
					sol.Status = StatusUnbounded
					return sol
				}
				sol.X[j] = hi
			default:
				if !math.IsInf(lo, -1) {
					sol.X[j] = lo
				} else if !math.IsInf(hi, 1) {
					sol.X[j] = hi
				}
			}
		}
		obj := p.objExpr.Const
		for _, t := range p.objExpr.Terms {
			obj += t.Coeff * sol.X[t.Var]
		}
		sol.Objective = obj
		return sol
	}

	s.Stats.ColdSolves.Add(1)
	rv.coldStart()
	st := StatusIterLimit
	p1, p2 := 0, 0
	if rv.refactor(&s.Stats) {
		st, p1, p2 = rv.primal(&s.Stats, maxIter, p.Deadline)
	}
	s.Stats.Pivots.Add(int64(p1 + p2))
	s.Stats.Phase1Pivots.Add(int64(p1))
	s.Stats.Phase2Pivots.Add(int64(p2))
	s.Stats.EtaLen.Store(int64(rv.f.nEtas()))
	if s.Obs != nil {
		s.Obs.Histogram("lp.solve.ms").Observe(float64(time.Since(t0)) / float64(time.Millisecond))
		s.Obs.Histogram("lp.solve.pivots").Observe(float64(p1 + p2))
	}
	sol.Status = st
	if st != StatusOptimal {
		return sol
	}
	rv.valid = true
	rv.extract(p, sol)
	return sol
}
