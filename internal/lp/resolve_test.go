package lp

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// buildResolveLP builds
//
//	min x + 2y   s.t.   x + y >= b1,  x <= b2,  y <= b3,  x,y >= 0
//
// whose optimum always pushes as much as possible onto the cheap x.
func buildResolveLP(b1, b2, b3 float64) (*Problem, VarID, VarID) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1))
	y := p.AddVariable("y", 0, math.Inf(1))
	p.AddConstraint("cover", NewExpr().Add(1, x).Add(1, y), GE, b1)
	p.AddConstraint("capx", NewExpr().Add(1, x), LE, b2)
	p.AddConstraint("capy", NewExpr().Add(1, y), LE, b3)
	p.SetObjective(Minimize, NewExpr().Add(1, x).Add(2, y))
	return p, x, y
}

// rhsEngine is the ResolveRHS surface shared by the production solver and
// the dense oracle.
type rhsEngine interface {
	Solve(*Problem) *Solution
	ResolveRHS(*Problem) *Solution
}

// rhsEngines returns a fresh production solver and a fresh dense oracle with
// its RHS factor cache enabled, with their stats.
func rhsEngines() []struct {
	name  string
	s     rhsEngine
	stats *SolverStats
} {
	rev := NewSolver()
	dense := &denseSolver{KeepRHSFactors: true}
	return []struct {
		name  string
		s     rhsEngine
		stats *SolverStats
	}{{"revised", rev, &rev.Stats}, {"dense", dense, &dense.Stats}}
}

// TestResolveRHSHit pins the dense oracle's fast path: a
// feasibility-preserving RHS change must return the identical optimal basis
// and objective as a cold solve, with zero pivots.
func TestResolveRHSHit(t *testing.T) {
	p, x, y := buildResolveLP(4, 10, 10)
	s := &denseSolver{KeepRHSFactors: true}
	if sol := s.Solve(p); sol.Status != StatusOptimal || math.Abs(sol.Objective-4) > 1e-9 {
		t.Fatalf("seed solve: %+v", sol)
	}
	basisBefore := append([]int{}, s.warmBasis...)
	pivotsBefore := s.Stats.Pivots.Load()

	// Raise the covering demand: x moves 4 -> 6, same basis stays feasible.
	p.SetConstraintRHS(0, 6)
	sol := s.ResolveRHS(p)
	if sol.Status != StatusOptimal {
		t.Fatalf("resolve status %v", sol.Status)
	}
	if math.Abs(sol.Objective-6) > 1e-9 || math.Abs(sol.Value(x)-6) > 1e-9 || math.Abs(sol.Value(y)) > 1e-9 {
		t.Fatalf("resolve optimum: obj %g x %g y %g", sol.Objective, sol.Value(x), sol.Value(y))
	}
	if got, want := s.Stats.RHSAttempts.Load(), int64(1); got != want {
		t.Fatalf("RHSAttempts %d, want %d", got, want)
	}
	if got, want := s.Stats.RHSHits.Load(), int64(1); got != want {
		t.Fatalf("RHSHits %d, want %d", got, want)
	}
	if got := s.Stats.Pivots.Load(); got != pivotsBefore {
		t.Fatalf("RHS hit pivoted: %d -> %d", pivotsBefore, got)
	}
	for i, bi := range s.warmBasis {
		if basisBefore[i] != bi {
			t.Fatalf("basis changed on RHS hit: %v -> %v", basisBefore, s.warmBasis)
		}
	}

	// Cross-check objective and vertex against a pristine cold solver.
	cold := NewSolver()
	ref := cold.Solve(p)
	if math.Abs(ref.Objective-sol.Objective) > 1e-9 {
		t.Fatalf("resolve obj %g, cold obj %g", sol.Objective, ref.Objective)
	}
	for i := range ref.X {
		if math.Abs(ref.X[i]-sol.X[i]) > 1e-9 {
			t.Fatalf("vertex mismatch at %d: resolve %v cold %v", i, sol.X, ref.X)
		}
	}
}

// TestResolveRHSFallbackInfeasibleBasis pins the dense oracle's fallback: an
// RHS change that makes the cached basis primal infeasible must still return
// the CORRECT new optimum (via the warm/cold path), never a stale or clamped
// vertex.
func TestResolveRHSFallbackInfeasibleBasis(t *testing.T) {
	p, x, y := buildResolveLP(6, 10, 10)
	s := &denseSolver{KeepRHSFactors: true}
	if sol := s.Solve(p); sol.Status != StatusOptimal {
		t.Fatalf("seed solve: %+v", sol)
	}

	// Choke x's capacity below the covering demand: the all-on-x basis goes
	// infeasible and y must enter.
	p.SetConstraintRHS(1, 3)
	sol := s.ResolveRHS(p)
	if sol.Status != StatusOptimal {
		t.Fatalf("fallback status %v", sol.Status)
	}
	// Optimum: x = 3, y = 3, obj = 3 + 6 = 9.
	if math.Abs(sol.Objective-9) > 1e-9 || math.Abs(sol.Value(x)-3) > 1e-9 || math.Abs(sol.Value(y)-3) > 1e-9 {
		t.Fatalf("fallback optimum: obj %g x %g y %g", sol.Objective, sol.Value(x), sol.Value(y))
	}
	if s.Stats.RHSAttempts.Load() != 1 || s.Stats.RHSHits.Load() != 0 {
		t.Fatalf("stats: attempts %d hits %d, want 1/0",
			s.Stats.RHSAttempts.Load(), s.Stats.RHSHits.Load())
	}
	// The fallback re-captures factors; the next feasible delta hits again.
	p.SetConstraintRHS(0, 5)
	sol = s.ResolveRHS(p)
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-7) > 1e-9 {
		t.Fatalf("post-fallback resolve: %+v", sol)
	}
	if s.Stats.RHSHits.Load() != 1 {
		t.Fatalf("post-fallback RHSHits %d, want 1", s.Stats.RHSHits.Load())
	}
}

// TestResolveRHSEQRowFallsBack: in the dense oracle a changed EQ row has no
// slack column to read B⁻¹ from, so the resolve must fall back — and still
// be right.
func TestResolveRHSEQRowFallsBack(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1))
	y := p.AddVariable("y", 0, math.Inf(1))
	p.AddConstraint("sum", NewExpr().Add(1, x).Add(1, y), EQ, 5)
	p.SetObjective(Minimize, NewExpr().Add(1, x).Add(3, y))
	s := &denseSolver{KeepRHSFactors: true}
	if sol := s.Solve(p); sol.Status != StatusOptimal || math.Abs(sol.Objective-5) > 1e-9 {
		t.Fatalf("seed solve: %+v", sol)
	}
	p.SetConstraintRHS(0, 8)
	sol := s.ResolveRHS(p)
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-8) > 1e-9 || math.Abs(sol.Value(x)-8) > 1e-9 {
		t.Fatalf("EQ fallback: %+v", sol)
	}
	if s.Stats.RHSHits.Load() != 0 {
		t.Fatalf("EQ row resolved on the fast path: hits %d", s.Stats.RHSHits.Load())
	}
}

// TestResolveRHSWithoutFactorsIsSolve: before any solve (or, in the dense
// oracle, without KeepRHSFactors) ResolveRHS must transparently behave like
// Solve.
func TestResolveRHSWithoutFactorsIsSolve(t *testing.T) {
	for _, eng := range rhsEngines() {
		p, _, _ := buildResolveLP(4, 10, 10)
		sol := eng.s.ResolveRHS(p)
		if sol.Status != StatusOptimal || math.Abs(sol.Objective-4) > 1e-9 {
			t.Fatalf("%s: resolve-as-solve: %+v", eng.name, sol)
		}
		if eng.stats.RHSAttempts.Load() != 0 {
			t.Fatalf("%s: attempt counted without cached factors", eng.name)
		}
	}
}

// TestResolveRHSRandomizedEquivalence drives a random min-u flow LP (the
// optimal-MLU shape: demands live purely in b) through long random RHS delta
// sequences and cross-checks every resolve against a pristine cold solver, on
// both the production engine and the dense oracle.
func TestResolveRHSRandomizedEquivalence(t *testing.T) {
	const (
		pairs = 6
		K     = 3
		edges = 10
		iters = 60
	)
	for _, eng := range rhsEngines() {
		name, s, stats := eng.name, eng.s, eng.stats
		r := rng.New(42)

		// Random slot -> edge incidence (each "path" crosses 1-3 edges).
		slotEdges := make([][]int, pairs*K)
		for s := range slotEdges {
			n := 1 + int(r.Uint64()%3)
			seen := map[int]bool{}
			for len(slotEdges[s]) < n {
				e := int(r.Uint64() % edges)
				if !seen[e] {
					seen[e] = true
					slotEdges[s] = append(slotEdges[s], e)
				}
			}
		}
		caps := make([]float64, edges)
		for e := range caps {
			caps[e] = 1 + 4*r.Float64()
		}
		demand := make([]float64, pairs)
		for i := range demand {
			demand[i] = 2 * r.Float64()
		}

		build := func() (*Problem, []int) {
			p := NewProblem()
			u := p.AddVariable("u", 0, math.Inf(1))
			fs := make([]VarID, pairs*K)
			for s := range fs {
				fs[s] = p.AddVariable("", 0, math.Inf(1))
			}
			demandCon := make([]int, pairs)
			e := NewExpr()
			for i := 0; i < pairs; i++ {
				e.Reset()
				for k := 0; k < K; k++ {
					e.Add(1, fs[i*K+k])
				}
				demandCon[i] = p.AddConstraint("", e, GE, demand[i])
			}
			for eid := 0; eid < edges; eid++ {
				e.Reset()
				any := false
				for s, se := range slotEdges {
					for _, x := range se {
						if x == eid {
							e.Add(1, fs[s])
							any = true
							break
						}
					}
				}
				if !any {
					continue
				}
				e.Add(-caps[eid], u)
				p.AddConstraint("", e, LE, 0)
			}
			p.SetObjective(Minimize, NewExpr().Add(1, u))
			return p, demandCon
		}

		p, demandCon := build()
		if sol := s.Solve(p); sol.Status != StatusOptimal {
			t.Fatalf("seed solve: %+v", sol)
		}

		for it := 0; it < iters; it++ {
			// Perturb one demand (FD-probe shape) or, occasionally, all of them.
			if it%10 == 9 {
				for i := range demand {
					demand[i] = 2 * r.Float64()
				}
			} else {
				i := int(r.Uint64() % pairs)
				demand[i] = math.Max(0, demand[i]+0.2*(r.Float64()-0.5))
			}
			for i, ci := range demandCon {
				p.SetConstraintRHS(ci, demand[i])
			}
			sol := s.ResolveRHS(p)
			if sol.Status != StatusOptimal {
				t.Fatalf("iter %d: resolve status %v", it, sol.Status)
			}
			ref := NewSolver().Solve(p)
			if ref.Status != StatusOptimal {
				t.Fatalf("iter %d: reference status %v", it, ref.Status)
			}
			tol := 1e-9 * math.Max(1, math.Abs(ref.Objective))
			if math.Abs(sol.Objective-ref.Objective) > tol {
				t.Fatalf("iter %d: resolve obj %.15g, cold obj %.15g", it, sol.Objective, ref.Objective)
			}
		}
		hits := int(stats.RHSHits.Load())
		if hits == 0 {
			t.Fatalf("%s: no RHS hits across %d single-coordinate perturbations", name, iters)
		}
		t.Logf("%s: rhs hits: %d/%d attempts (%d solves, %d pivots)",
			name, hits, stats.RHSAttempts.Load(), stats.Solves.Load(), stats.Pivots.Load())
	}
}
