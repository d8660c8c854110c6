package lp

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// relDiff returns |a−b| / max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	s := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / s
}

// buildRandomBoxLP constructs a random LP exercising everything the bounded-
// variable revised simplex must handle: one-sided, two-sided, fixed, and
// free variables; LE/GE/EQ rows; both senses. Rows are anchored on a known
// interior point so most instances are feasible and bounded, but not all —
// status disagreements are themselves assertions.
func buildRandomBoxLP(vars, cons int, seed uint64) *Problem {
	r := rng.New(seed)
	p := NewProblem()
	ids := make([]VarID, vars)
	x0 := make([]float64, vars) // anchor point, respected by every bound
	for i := range ids {
		switch r.Intn(6) {
		case 0: // two-sided box
			lo := r.Uniform(-3, 0)
			ids[i] = p.AddVariable("", lo, lo+r.Uniform(0.5, 4))
			x0[i] = lo + 0.25
		case 1: // upper-bounded only
			hi := r.Uniform(0, 5)
			ids[i] = p.AddVariable("", math.Inf(-1), hi)
			x0[i] = hi - 1
		case 2: // fixed
			v := r.Uniform(-1, 1)
			ids[i] = p.AddVariable("", v, v)
			x0[i] = v
		case 3: // free
			ids[i] = p.AddVariable("", math.Inf(-1), math.Inf(1))
			x0[i] = r.Uniform(-1, 1)
		default: // classic x ≥ 0
			ids[i] = p.AddVariable("", 0, math.Inf(1))
			x0[i] = r.Uniform(0, 2)
		}
	}
	obj := NewExpr()
	for _, v := range ids {
		obj.Add(r.Uniform(-1, 2), v)
	}
	if r.Intn(2) == 0 {
		p.SetObjective(Minimize, obj)
	} else {
		p.SetObjective(Maximize, obj)
	}
	for c := 0; c < cons; c++ {
		e := NewExpr()
		lhs := 0.0
		for i, v := range ids {
			if r.Float64() < 0.4 {
				co := r.Uniform(-1, 1)
				e.Add(co, v)
				lhs += co * x0[i]
			}
		}
		switch r.Intn(3) {
		case 0:
			p.AddConstraint("", e, LE, lhs+r.Uniform(0.1, 3))
		case 1:
			p.AddConstraint("", e, GE, lhs-r.Uniform(0.1, 3))
		default:
			p.AddConstraint("", e, EQ, lhs)
		}
	}
	return p
}

// TestRevisedMatchesDenseRandom pins the revised engine to the dense oracle
// across the randomized suite: statuses must agree, and optimal objectives
// must match to 1e-9 relative.
func TestRevisedMatchesDenseRandom(t *testing.T) {
	shapes := []struct{ vars, cons int }{
		{4, 3}, {8, 5}, {12, 12}, {20, 14}, {30, 18}, {25, 40},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 40; seed++ {
			p := buildRandomBoxLP(sh.vars, sh.cons, seed*1000+uint64(sh.vars))
			dense := &denseSolver{}
			rev := &Solver{}
			ds := dense.Solve(p)
			rs := rev.Solve(p)
			if ds.Status != rs.Status {
				t.Fatalf("%dx%d seed %d: dense %v, revised %v", sh.vars, sh.cons, seed, ds.Status, rs.Status)
			}
			if ds.Status != StatusOptimal {
				continue
			}
			if d := relDiff(ds.Objective, rs.Objective); d > 1e-9 {
				t.Fatalf("%dx%d seed %d: dense obj %.15g, revised %.15g (rel %.3g)",
					sh.vars, sh.cons, seed, ds.Objective, rs.Objective, d)
			}
		}
	}
}

// TestRevisedMatchesDenseNonNegative covers the legacy generator (only
// x ≥ 0, LE rows, Maximize) at larger shapes.
func TestRevisedMatchesDenseNonNegative(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := buildRandomLP(60, 45, seed)
		ds := (&denseSolver{}).Solve(p)
		rs := (&Solver{}).Solve(p)
		if ds.Status != StatusOptimal || rs.Status != StatusOptimal {
			t.Fatalf("seed %d: dense %v revised %v", seed, ds.Status, rs.Status)
		}
		if d := relDiff(ds.Objective, rs.Objective); d > 1e-9 {
			t.Fatalf("seed %d: dense obj %.15g revised %.15g (rel %.3g)", seed, ds.Objective, rs.Objective, d)
		}
	}
}

// TestRevisedSequenceMatchesDense runs a perturbed solve sequence through
// one revised Solver and pins every objective to the dense oracle's.
func TestRevisedSequenceMatchesDense(t *testing.T) {
	r := rng.New(11)
	rev := &Solver{}
	p := NewProblem()
	base := []float64{3, 5, 2}
	caps := []float64{4, 4, 4, 4}
	for iter := 0; iter < 25; iter++ {
		d := make([]float64, len(base))
		for i := range d {
			d[i] = base[i] * (0.8 + 0.4*r.Float64())
		}
		buildTransportLP(p, d, caps)
		got := rev.Solve(p)
		if got.Status != StatusOptimal {
			t.Fatalf("iter %d: revised status %v", iter, got.Status)
		}
		buildTransportLP(p, d, caps)
		want := (&denseSolver{}).Solve(p)
		if want.Status != StatusOptimal {
			t.Fatalf("iter %d: dense oracle status %v", iter, want.Status)
		}
		if d := relDiff(got.Objective, want.Objective); d > 1e-9 {
			t.Fatalf("iter %d: revised %.15g dense %.15g (rel %.3g)", iter, got.Objective, want.Objective, d)
		}
	}
	if rev.Stats.Refactors.Load() == 0 {
		t.Fatal("Refactors counter never moved")
	}
}

// TestRevisedInfeasible and TestRevisedUnbounded pin the non-optimal
// statuses.
func TestRevisedInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1))
	y := p.AddVariable("y", 0, math.Inf(1))
	e := NewExpr()
	e.Add(1, x)
	e.Add(1, y)
	p.AddConstraint("", e, LE, 1)
	e2 := NewExpr()
	e2.Add(1, x)
	e2.Add(1, y)
	p.AddConstraint("", e2, GE, 3)
	obj := NewExpr()
	obj.Add(1, x)
	p.SetObjective(Minimize, obj)
	s := (&Solver{}).Solve(p)
	if s.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestRevisedUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1))
	y := p.AddVariable("y", 0, math.Inf(1))
	e := NewExpr()
	e.Add(1, x)
	e.Add(-1, y)
	p.AddConstraint("", e, LE, 1)
	obj := NewExpr()
	obj.Add(1, x)
	obj.Add(1, y)
	p.SetObjective(Maximize, obj)
	s := (&Solver{}).Solve(p)
	if s.Status != StatusUnbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

// TestRevisedPivotPhaseSplit checks the SolverStats phase counters add up
// on the production engine and on the dense oracle.
func TestRevisedPivotPhaseSplit(t *testing.T) {
	p := buildRandomBoxLP(20, 14, 99)
	rev := NewSolver()
	dense := &denseSolver{}
	for name, eng := range map[string]struct {
		st    Status
		stats *SolverStats
	}{
		"revised": {rev.Solve(p).Status, &rev.Stats},
		"dense":   {dense.Solve(p).Status, &dense.Stats},
	} {
		if eng.st != StatusOptimal {
			continue
		}
		snap := eng.stats.Snapshot()
		if snap.Phase1Pivots+snap.Phase2Pivots != snap.Pivots {
			t.Fatalf("%s: phase1 %d + phase2 %d != pivots %d",
				name, snap.Phase1Pivots, snap.Phase2Pivots, snap.Pivots)
		}
	}
}
