package lp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// buildTransportLP models a small transportation problem: route demand d
// from 3 sources through 4 routes with per-route capacity caps, minimizing
// routed cost. The structure (shape) is fixed; d and caps vary per call.
func buildTransportLP(p *Problem, d, caps []float64) {
	p.Reset()
	xs := make([]VarID, 0, len(d)*len(caps))
	e := NewExpr()
	for i := range d {
		e.Reset()
		for range caps {
			v := p.AddVariable("", 0, math.Inf(1))
			xs = append(xs, v)
			e.Add(1, v)
		}
		p.AddConstraint("", e, EQ, d[i])
	}
	for j := range caps {
		e.Reset()
		for i := range d {
			e.Add(1, xs[i*len(caps)+j])
		}
		p.AddConstraint("", e, LE, caps[j])
	}
	obj := NewExpr()
	for i := range d {
		for j := range caps {
			obj.Add(float64(1+(i+2*j)%5), xs[i*len(caps)+j])
		}
	}
	p.SetObjective(Minimize, obj)
}

// sameSolution reports whether a and b agree bitwise: status, objective bits
// and every X bit.
func sameSolution(a, b *Solution) bool {
	if a.Status != b.Status || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// solveMatchesFresh solves p on s and on a fresh NewSolver and fails unless
// s's answer has status want and equals the fresh answer bit for bit: a Solve
// is a function of its Problem alone, whatever s solved before.
func solveMatchesFresh(t *testing.T, s *Solver, p *Problem, want Status, step string) {
	t.Helper()
	got := s.Solve(p)
	fresh := NewSolver().Solve(p)
	if got.Status != want {
		t.Fatalf("%s: status %v, want %v", step, got.Status, want)
	}
	if !sameSolution(got, fresh) {
		t.Fatalf("%s: reused solver's answer differs from a fresh solver's (objectives %v and %v)",
			step, got.Objective, fresh.Objective)
	}
}

// The four TestWarmStart* tests keep the names of the warm-start checks they
// replace: each runs the sequence that once exercised the warm branch or one
// of its fallbacks through one Solver and requires every answer to equal a
// fresh solver's.

// TestWarmStartEquivalence solves a perturbed sequence of same-shape
// instances, each optimum a candidate basis for the next.
func TestWarmStartEquivalence(t *testing.T) {
	s := NewSolver()
	p := NewProblem()
	r := rng.New(7)
	base := []float64{3, 5, 2}
	caps := []float64{4, 4, 4, 4}
	for iter := 0; iter < 25; iter++ {
		d := make([]float64, len(base))
		for i := range d {
			d[i] = base[i] * (0.8 + 0.4*r.Float64())
		}
		buildTransportLP(p, d, caps)
		solveMatchesFresh(t, s, p, StatusOptimal, fmt.Sprintf("iter %d", iter))
	}
	if s.Stats.Solves.Load() != 25 || s.Stats.ColdSolves.Load() != 25 {
		t.Fatalf("Solves = %d, ColdSolves = %d, want 25 and 25", s.Stats.Solves.Load(), s.Stats.ColdSolves.Load())
	}
}

// TestWarmStartInfeasibleBasisFallback follows an optimum with same-shape
// data whose optimum needs another active set (total demand 15 against other
// capacities), so the previous optimal basis is infeasible for it.
func TestWarmStartInfeasibleBasisFallback(t *testing.T) {
	s := NewSolver()
	p := NewProblem()
	buildTransportLP(p, []float64{3, 5, 2}, []float64{4, 4, 4, 4})
	solveMatchesFresh(t, s, p, StatusOptimal, "first solve")
	buildTransportLP(p, []float64{1, 13, 1}, []float64{9, 2, 2, 2})
	solveMatchesFresh(t, s, p, StatusOptimal, "perturbed solve")
}

// TestWarmStartShapeMismatchFallsBackCold follows an optimum with an
// instance of another shape.
func TestWarmStartShapeMismatchFallsBackCold(t *testing.T) {
	s := NewSolver()
	p := NewProblem()
	buildTransportLP(p, []float64{3, 5, 2}, []float64{4, 4, 4, 4})
	solveMatchesFresh(t, s, p, StatusOptimal, "first solve")
	buildTransportLP(p, []float64{2, 2}, []float64{3, 3, 3})
	solveMatchesFresh(t, s, p, StatusOptimal, "reshaped solve")
}

// TestWarmStartInfeasibleClearsCache follows an optimum with an infeasible
// instance (demand exceeds total capacity), then solves the first instance
// again.
func TestWarmStartInfeasibleClearsCache(t *testing.T) {
	s := NewSolver()
	p := NewProblem()
	buildTransportLP(p, []float64{3, 5, 2}, []float64{4, 4, 4, 4})
	solveMatchesFresh(t, s, p, StatusOptimal, "first solve")
	buildTransportLP(p, []float64{30, 50, 20}, []float64{4, 4, 4, 4})
	solveMatchesFresh(t, s, p, StatusInfeasible, "overloaded solve")
	buildTransportLP(p, []float64{3, 5, 2}, []float64{4, 4, 4, 4})
	solveMatchesFresh(t, s, p, StatusOptimal, "recovery solve")
}

// TestSolveHistoryFree stops a solve by its iteration limit, which leaves the
// pricing scan mid-way, and requires the next solves — the same LP without
// the limit, then a larger, tie-rich one — not to start where it stopped.
func TestSolveHistoryFree(t *testing.T) {
	s := NewSolver()
	p := NewProblem()
	big := rng.New(11)
	benchTransport(p, big)
	p.MaxIter = 3
	solveMatchesFresh(t, s, p, StatusIterLimit, "iteration-limited solve")
	p.MaxIter = 0
	solveMatchesFresh(t, s, p, StatusOptimal, "same LP without the limit")
	benchTransport(p, big)
	solveMatchesFresh(t, s, p, StatusOptimal, "larger LP")
}
