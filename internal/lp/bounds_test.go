package lp

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// mutateBounds applies one random bound tightening or widening to a variable
// of p, keeping lo ≤ hi and both bounds finite-or-as-before, and returns
// whether it changed anything. Mirrors the branch-and-bound mutation shape:
// a single-variable box edit between solves.
func mutateBounds(p *Problem, r *rng.RNG) bool {
	n := p.NumVars()
	if n == 0 {
		return false
	}
	v := VarID(r.Intn(n))
	lo, hi := p.VarBounds(v)
	switch r.Intn(3) {
	case 0: // tighten lower toward the middle of the (finite) box
		nlo := lo
		if math.IsInf(lo, -1) {
			nlo = -3 + r.Uniform(0, 2)
		} else {
			nlo = lo + r.Uniform(0, 0.5)
		}
		if nlo > hi {
			nlo = hi
		}
		if nlo == lo {
			return false
		}
		p.SetVarBounds(v, nlo, hi)
	case 1: // tighten upper
		nhi := hi
		if math.IsInf(hi, 1) {
			nhi = 3 - r.Uniform(0, 2)
		} else {
			nhi = hi - r.Uniform(0, 0.5)
		}
		if nhi < lo {
			nhi = lo
		}
		if nhi == hi {
			return false
		}
		p.SetVarBounds(v, lo, nhi)
	default: // widen one side (dual feasibility is preserved either way)
		if math.IsInf(lo, -1) {
			return false
		}
		p.SetVarBounds(v, lo-r.Uniform(0, 1), hi)
	}
	return true
}

// branchBounds applies a branch-and-bound branch to p: it cuts one variable
// whose value in sol lies strictly inside its box off that value (down:
// hi below it; up: lo above it). When the variable is basic, the retained
// basis goes primal infeasible and ResolveBounds must repair it with the
// dual simplex. It returns false when no variable is interior.
func branchBounds(p *Problem, sol *Solution, r *rng.RNG) bool {
	var interior []VarID
	for j := 0; j < p.NumVars(); j++ {
		v := VarID(j)
		lo, hi := p.VarBounds(v)
		if x := sol.X[j]; x > lo+1e-6 && x < hi-1e-6 {
			interior = append(interior, v)
		}
	}
	if len(interior) == 0 {
		return false
	}
	v := interior[r.Intn(len(interior))]
	lo, hi := p.VarBounds(v)
	x, d := sol.X[v], r.Uniform(0.05, 0.5)
	if r.Intn(2) == 0 {
		p.SetVarBounds(v, lo, math.Max(lo, x-d))
	} else {
		p.SetVarBounds(v, math.Min(hi, x+d), hi)
	}
	return true
}

// TestResolveBoundsRandomizedEquivalence drives a warm solver through chains
// of single-variable bound edits via ResolveBounds and pins every answer to
// a pristine dense cold solve: statuses must agree (including the dual
// simplex's trusted infeasibility verdicts) and optimal objectives must
// match to 1e-9 relative. Two chains run per instance: random tightenings
// and widenings (mutateBounds), and branch-and-bound cuts through the
// current optimum (branchBounds), which make the retained basis primal
// infeasible; the dual simplex must complete some of those re-solves.
func TestResolveBoundsRandomizedEquivalence(t *testing.T) {
	shapes := []struct{ vars, cons int }{
		{4, 3}, {8, 5}, {12, 12}, {20, 14},
	}
	type mutation func(p *Problem, last *Solution, r *rng.RNG) bool
	chains := []struct {
		name   string
		mutate mutation
	}{
		{"random", func(p *Problem, _ *Solution, r *rng.RNG) bool { return mutateBounds(p, r) }},
		{"branch", branchBounds},
	}
	var dualResolves int64
	for _, ch := range chains {
		for _, sh := range shapes {
			for seed := uint64(1); seed <= 25; seed++ {
				p := buildRandomBoxLP(sh.vars, sh.cons, seed*77+uint64(sh.cons))
				warm := &Solver{}
				last := warm.Solve(p)
				if last.Status != StatusOptimal {
					continue // need a retained basis to warm from
				}
				r := rng.New(seed * 13)
				for step := 0; step < 8; step++ {
					if !ch.mutate(p, last, r) {
						continue
					}
					ws := warm.ResolveBounds(p)
					ds := (&denseSolver{}).Solve(p)
					if ws.Status != ds.Status {
						t.Fatalf("%s %dx%d seed %d step %d: warm %v, dense %v",
							ch.name, sh.vars, sh.cons, seed, step, ws.Status, ds.Status)
					}
					if ds.Status != StatusOptimal {
						break // chain ends once the box empties
					}
					if d := relDiff(ws.Objective, ds.Objective); d > 1e-9 {
						t.Fatalf("%s %dx%d seed %d step %d: warm obj %.15g, dense %.15g (rel %.3g)",
							ch.name, sh.vars, sh.cons, seed, step, ws.Objective, ds.Objective, d)
					}
					last = ws
				}
				dualResolves += warm.Stats.DualResolves.Load()
			}
		}
	}
	if dualResolves == 0 {
		t.Fatal("no bound re-solve was completed by the dual simplex")
	}
}

// TestResolveBoundsHitStats checks the fast path actually engages on a
// bound tightening: BoundAttempts and BoundHits advance and no cold solve
// is charged for the re-solve.
func TestResolveBoundsHitStats(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 10)
	y := p.AddVariable("y", 0, 10)
	obj := NewExpr()
	obj.Add(1, x)
	obj.Add(1, y)
	p.SetObjective(Maximize, obj)
	e := NewExpr()
	e.Add(1, x)
	e.Add(1, y)
	p.AddConstraint("cap", e, LE, 12)

	s := &Solver{}
	if st := s.Solve(p).Status; st != StatusOptimal {
		t.Fatalf("base solve: %v", st)
	}
	cold := s.Stats.ColdSolves.Load()
	p.SetVarBounds(x, 0, 3) // optimum moves: x=3, y=9
	sol := s.ResolveBounds(p)
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-12) > 1e-9 {
		t.Fatalf("resolve: %v obj %g", sol.Status, sol.Objective)
	}
	if a := s.Stats.BoundAttempts.Load(); a != 1 {
		t.Fatalf("BoundAttempts = %d, want 1", a)
	}
	if h := s.Stats.BoundHits.Load(); h != 1 {
		t.Fatalf("BoundHits = %d, want 1", h)
	}
	if c := s.Stats.ColdSolves.Load(); c != cold {
		t.Fatalf("cold solves advanced %d → %d on the fast path", cold, c)
	}
}

// TestResolveBoundsInfeasibleVerdict pins the trusted dual infeasibility
// verdict against the dense oracle when a tightening empties the feasible
// region.
func TestResolveBoundsInfeasibleVerdict(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 4)
	y := p.AddVariable("y", 0, 4)
	obj := NewExpr()
	obj.Add(1, x)
	obj.Add(2, y)
	p.SetObjective(Maximize, obj)
	e := NewExpr()
	e.Add(1, x)
	e.Add(1, y)
	p.AddConstraint("need", e, GE, 5)

	s := &Solver{}
	if st := s.Solve(p).Status; st != StatusOptimal {
		t.Fatalf("base solve: %v", st)
	}
	p.SetVarBounds(x, 0, 1)
	p.SetVarBounds(y, 0, 1) // x+y ≥ 5 impossible
	ws := s.ResolveBounds(p)
	ds := (&denseSolver{}).Solve(p)
	if ws.Status != StatusInfeasible || ds.Status != StatusInfeasible {
		t.Fatalf("warm %v dense %v, want both infeasible", ws.Status, ds.Status)
	}
}

// TestBasisSnapshotDeterminism is the parallel-B&B contract at the LP layer:
// ResolveBounds from a loaded snapshot must be bitwise identical whether the
// loading solver is the one that produced the snapshot or a fresh solver
// with arbitrary prior history.
func TestBasisSnapshotDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := buildRandomBoxLP(10, 8, seed*991)
		producer := &Solver{}
		if producer.Solve(p).Status != StatusOptimal {
			continue
		}
		var snap Basis
		if !producer.SaveBasis(&snap) {
			t.Fatalf("seed %d: SaveBasis failed after optimal revised solve", seed)
		}

		r := rng.New(seed)
		q := p.Clone()
		for !mutateBounds(q, r) {
		}

		// Same snapshot, three differently-seasoned solvers.
		solvers := []*Solver{
			producer,
			{}, // pristine
			{}, // seasoned on an unrelated problem
		}
		solvers[2].Solve(buildRandomBoxLP(7, 6, seed+5000))

		var ref *Solution
		for i, s := range solvers {
			if i != 0 {
				if !s.LoadBasis(&snap) {
					t.Fatalf("seed %d solver %d: LoadBasis failed", seed, i)
				}
			}
			got := s.ResolveBounds(q.Clone())
			if i == 0 {
				ref = got
				continue
			}
			if got.Status != ref.Status {
				t.Fatalf("seed %d solver %d: status %v, want %v", seed, i, got.Status, ref.Status)
			}
			if got.Status != StatusOptimal {
				continue
			}
			if got.Objective != ref.Objective {
				t.Fatalf("seed %d solver %d: objective %x, want %x (not bitwise)",
					seed, i, got.Objective, ref.Objective)
			}
			for j := range got.X {
				if got.X[j] != ref.X[j] {
					t.Fatalf("seed %d solver %d: X[%d] %x vs %x", seed, i, j, got.X[j], ref.X[j])
				}
			}
		}
	}
}

// TestLoadBasisEmpty checks the no-snapshot edge: loading a never-saved
// Basis reports false and leaves the solver cold-solving correctly.
func TestLoadBasisEmpty(t *testing.T) {
	var b Basis
	s := &Solver{}
	if s.LoadBasis(&b) {
		t.Fatal("LoadBasis succeeded on an empty snapshot")
	}
	p := NewProblem()
	x := p.AddVariable("x", 0, 1)
	obj := NewExpr()
	obj.Add(1, x)
	p.SetObjective(Maximize, obj)
	e := NewExpr()
	e.Add(1, x)
	p.AddConstraint("", e, LE, 1)
	if sol := s.ResolveBounds(p); sol.Status != StatusOptimal || math.Abs(sol.Objective-1) > 1e-12 {
		t.Fatalf("fallback solve: %v obj %g", sol.Status, sol.Objective)
	}
}

// buildRandomMILPRelaxation builds the LP relaxation of a bounded random
// MILP in the shape milp's equivalence suite uses: integer variables boxed to
// small integer ranges (some binary), a few continuous boxes, and LE/GE/EQ
// rows anchored on an integral point. It returns the problem and the IDs of
// its integer variables. A slice of instances pins one integer variable into
// a fractional window, as that suite does.
func buildRandomMILPRelaxation(nInt, nCont, cons int, seed uint64) (*Problem, []VarID) {
	r := rng.New(seed)
	p := NewProblem()
	ids := make([]VarID, 0, nInt+nCont)
	anchor := make([]float64, 0, nInt+nCont)
	for i := 0; i < nInt; i++ {
		hi := 1.0
		if r.Intn(3) != 0 {
			hi = float64(2 + r.Intn(5))
		}
		ids = append(ids, p.AddVariable("", 0, hi))
		anchor = append(anchor, math.Round(r.Uniform(0, hi)))
	}
	for i := 0; i < nCont; i++ {
		lo := r.Uniform(-2, 0)
		ids = append(ids, p.AddVariable("", lo, lo+r.Uniform(1, 4)))
		anchor = append(anchor, lo+0.5)
	}
	obj := NewExpr()
	for _, v := range ids {
		obj.Add(r.Uniform(-2, 3), v)
	}
	if r.Intn(2) == 0 {
		p.SetObjective(Maximize, obj)
	} else {
		p.SetObjective(Minimize, obj)
	}
	for c := 0; c < cons; c++ {
		e := NewExpr()
		lhs := 0.0
		for i, v := range ids {
			if r.Float64() < 0.5 {
				co := r.Uniform(-1, 2)
				e.Add(co, v)
				lhs += co * anchor[i]
			}
		}
		switch r.Intn(3) {
		case 0:
			p.AddConstraint("", e, LE, lhs+r.Uniform(0.2, 2))
		case 1:
			p.AddConstraint("", e, GE, lhs-r.Uniform(0.2, 2))
		default:
			p.AddConstraint("", e, EQ, lhs)
		}
	}
	if nInt > 0 && r.Float64() < 0.2 {
		v := ids[r.Intn(nInt)]
		lo := NewExpr()
		lo.Add(1, v)
		p.AddConstraint("", lo, GE, 0.3)
		hi := NewExpr()
		hi.Add(1, v)
		p.AddConstraint("", hi, LE, 0.7)
	}
	return p, ids[:nInt]
}

// TestBranchNodeRelaxationsMatchDense is the LP-engine cross-check behind
// branch-and-bound: it dives down random branches of random MILPs, solving
// every node relaxation three ways — a fresh production solve (what milp's
// cold-clone engine runs), a warm ResolveBounds chain (what the warm engine
// runs), and the dense oracle. Statuses must agree and optimal objectives
// match to 1e-9 relative.
func TestBranchNodeRelaxationsMatchDense(t *testing.T) {
	shapes := []struct{ nInt, nCont, cons int }{
		{4, 0, 3}, {6, 2, 4}, {8, 0, 6}, {10, 3, 8},
	}
	nodes := 0
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 30; seed++ {
			p, ints := buildRandomMILPRelaxation(sh.nInt, sh.nCont, sh.cons, seed*131+uint64(sh.nInt))
			warm := &Solver{}
			r := rng.New(seed * 7)
			for depth := 0; ; depth++ {
				var ws *Solution
				if depth == 0 {
					ws = warm.Solve(p)
				} else {
					ws = warm.ResolveBounds(p)
				}
				cs := (&Solver{}).Solve(p)
				ds := (&denseSolver{}).Solve(p)
				nodes++
				if cs.Status != ds.Status || ws.Status != ds.Status {
					t.Fatalf("%+v seed %d depth %d: cold %v, warm %v, dense %v",
						sh, seed, depth, cs.Status, ws.Status, ds.Status)
				}
				if ds.Status != StatusOptimal {
					break
				}
				if d := relDiff(cs.Objective, ds.Objective); d > 1e-9 {
					t.Fatalf("%+v seed %d depth %d: cold obj %.15g, dense %.15g (rel %.3g)",
						sh, seed, depth, cs.Objective, ds.Objective, d)
				}
				if d := relDiff(ws.Objective, ds.Objective); d > 1e-9 {
					t.Fatalf("%+v seed %d depth %d: warm obj %.15g, dense %.15g (rel %.3g)",
						sh, seed, depth, ws.Objective, ds.Objective, d)
				}
				// Branch on the first fractional integer variable of the
				// oracle's vertex, down or up at random.
				branched := false
				for _, v := range ints {
					x := ds.X[v]
					if f := x - math.Floor(x); f < 1e-6 || f > 1-1e-6 {
						continue
					}
					lo, hi := p.VarBounds(v)
					if r.Intn(2) == 0 {
						p.SetVarBounds(v, lo, math.Floor(x))
					} else {
						p.SetVarBounds(v, math.Ceil(x), hi)
					}
					branched = true
					break
				}
				if !branched {
					break
				}
			}
		}
	}
	if nodes < 200 {
		t.Fatalf("only %d node relaxations compared", nodes)
	}
}
