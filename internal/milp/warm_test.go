package milp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/rng"
)

// randomMILP builds a bounded random MILP: integer variables over small
// boxes, a few continuous variables, and constraints anchored on a point
// inside the bounds so most instances are feasible — but not all, and the
// infeasible ones pin the Status equivalence too. Everything is boxed, so
// no relaxation is unbounded and budget-free solves always exhaust.
func randomMILP(nInt, nCont, cons int, seed uint64) *Problem {
	r := rng.New(seed)
	p := NewProblem()
	ids := make([]lp.VarID, 0, nInt+nCont)
	anchor := make([]float64, 0, nInt+nCont)
	for i := 0; i < nInt; i++ {
		if r.Intn(3) == 0 {
			ids = append(ids, p.AddBinary(""))
			anchor = append(anchor, float64(r.Intn(2)))
		} else {
			hi := float64(2 + r.Intn(5))
			ids = append(ids, p.AddInteger("", 0, hi))
			anchor = append(anchor, math.Round(r.Uniform(0, hi)))
		}
	}
	for i := 0; i < nCont; i++ {
		lo := r.Uniform(-2, 0)
		ids = append(ids, p.AddVariable("", lo, lo+r.Uniform(1, 4)))
		anchor = append(anchor, lo+0.5)
	}
	obj := lp.NewExpr()
	for _, v := range ids {
		obj.Add(r.Uniform(-2, 3), v)
	}
	if r.Intn(2) == 0 {
		p.SetObjective(lp.Maximize, obj)
	} else {
		p.SetObjective(lp.Minimize, obj)
	}
	for c := 0; c < cons; c++ {
		e := lp.NewExpr()
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
			p.AddConstraint("", e, lp.LE, lhs+r.Uniform(0.2, 2))
		case 1:
			p.AddConstraint("", e, lp.GE, lhs-r.Uniform(0.2, 2))
		default:
			p.AddConstraint("", e, lp.EQ, lhs)
		}
	}
	// A slice of instances is made integer-infeasible on purpose: pinning one
	// integer variable into a fractional window keeps the LP relaxation
	// feasible while no integral point exists, so the suite also exercises
	// the engines' infeasibility proofs (including warm dual verdicts).
	if nInt > 0 && r.Float64() < 0.2 {
		v := ids[r.Intn(nInt)]
		e := lp.NewExpr()
		e.Add(1, v)
		p.AddConstraint("", e, lp.GE, 0.3)
		e2 := lp.NewExpr()
		e2.Add(1, v)
		p.AddConstraint("", e2, lp.LE, 0.7)
	}
	return p
}

// TestWarmMatchesColdCloneRandomized is the engine equivalence suite: on
// budget-free randomized MILPs the warm-started engine must agree with the
// cold-clone oracle (coldclone_test.go) on Status, and (when optimal) on the
// incumbent objective within 1e-9 and on BestBound == Objective. Both
// engines run the same revised LP engine, so this pins the branch-and-bound
// logic (warm bound re-solves, snapshots, wave scheduling), not the LP; lp's
// TestBranchNodeRelaxationsMatchDense checks these node relaxations against
// the dense oracle.
func TestWarmMatchesColdCloneRandomized(t *testing.T) {
	shapes := []struct{ nInt, nCont, cons int }{
		{4, 0, 3}, {6, 2, 4}, {8, 0, 6}, {10, 3, 8},
	}
	statuses := map[Status]int{}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 30; seed++ {
			p := randomMILP(sh.nInt, sh.nCont, sh.cons, seed*131+uint64(sh.nInt))
			warm := p.Solve(Options{})
			cold := p.solveColdClone(context.Background(), Options{})
			statuses[warm.Status]++
			if warm.Status != cold.Status {
				t.Fatalf("%+v seed %d: warm %v, cold %v", sh, seed, warm.Status, cold.Status)
			}
			if warm.StopReason != "" || cold.StopReason != "" {
				t.Fatalf("%+v seed %d: budget-free solve reported stop reasons %q/%q",
					sh, seed, warm.StopReason, cold.StopReason)
			}
			switch warm.Status {
			case Optimal:
				d := math.Abs(warm.Objective-cold.Objective) /
					math.Max(1, math.Max(math.Abs(warm.Objective), math.Abs(cold.Objective)))
				if d > 1e-9 {
					t.Fatalf("%+v seed %d: warm obj %.15g, cold %.15g (rel %.3g)",
						sh, seed, warm.Objective, cold.Objective, d)
				}
				if warm.BestBound != warm.Objective {
					t.Fatalf("%+v seed %d: warm BestBound %v != Objective %v",
						sh, seed, warm.BestBound, warm.Objective)
				}
			case Infeasible:
				if warm.BestBound != cold.BestBound {
					t.Fatalf("%+v seed %d: infeasible BestBound %v vs %v",
						sh, seed, warm.BestBound, cold.BestBound)
				}
			default:
				t.Fatalf("%+v seed %d: budget-free solve ended %v", sh, seed, warm.Status)
			}
		}
	}
	if statuses[Optimal] == 0 || statuses[Infeasible] == 0 {
		t.Fatalf("suite did not cover both terminal statuses: %v", statuses)
	}
}

// sameSolution fails unless got equals want bitwise on Status, Nodes,
// Objective, BestBound and X.
func sameSolution(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status || got.Nodes != want.Nodes ||
		got.Objective != want.Objective || got.BestBound != want.BestBound {
		t.Fatalf("%s: got %v/%d/%x/%x, want %v/%d/%x/%x", what,
			got.Status, got.Nodes, got.Objective, got.BestBound,
			want.Status, want.Nodes, want.Objective, want.BestBound)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: X lengths %d vs %d", what, len(got.X), len(want.X))
	}
	for j := range got.X {
		if got.X[j] != want.X[j] {
			t.Fatalf("%s: X[%d] = %x, want %x (not bitwise)", what, j, got.X[j], want.X[j])
		}
	}
}

// TestWarmParallelDeterminism is the determinism contract that concurrent
// callers rely on: a solve is bitwise independent of what the pooled solver
// that runs it solved before, and of a live deadline or context that never
// fires. Each seed is re-solved after every other seed has run through the
// pool, forward and in reverse.
func TestWarmParallelDeterminism(t *testing.T) {
	const seeds = 12
	probs := make([]*Problem, seeds)
	refs := make([]*Solution, seeds)
	for i := range probs {
		probs[i] = randomMILP(9, 2, 6, uint64(i+1)*977)
		refs[i] = probs[i].Solve(Options{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := seeds - 1; i >= 0; i-- {
		got := probs[i].SolveCtx(ctx, Options{MaxTime: time.Hour})
		sameSolution(t, fmt.Sprintf("seed %d (reverse, live ctx)", i+1), got, refs[i])
	}
	for i := range probs {
		sameSolution(t, fmt.Sprintf("seed %d (re-solve)", i+1), probs[i].Solve(Options{}), refs[i])
	}
}

// TestSolveCtxCancellation pins the context satellite: an already-cancelled
// or expired context stops the solve before the first wave with the
// matching StopReason, and a deadline mid-solve surfaces as StopDeadline
// with the best-so-far solution intact.
func TestSolveCtxCancellation(t *testing.T) {
	p := fractionalKnapsack(14, 9)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	s := p.SolveCtx(cancelled, Options{})
	if s.Nodes != 0 || s.Status != NoIncumbent || s.StopReason != StopCancelled {
		t.Fatalf("cancelled ctx: nodes %d status %v reason %q", s.Nodes, s.Status, s.StopReason)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	s = p.SolveCtx(expired, Options{})
	if s.Nodes != 0 || s.StopReason != StopDeadline {
		t.Fatalf("expired ctx: nodes %d reason %q", s.Nodes, s.StopReason)
	}

	// A context deadline must also bound the node solves themselves (it is
	// folded into the LP deadline), not just the wave boundaries.
	ctx, cancel3 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel3()
	s = p.SolveCtx(ctx, Options{MaxNodes: 10_000_000})
	if s.StopReason != StopDeadline && s.StopReason != "" {
		t.Fatalf("timeout ctx: reason %q", s.StopReason)
	}

	// The cold-clone oracle honors the same contract.
	s = p.solveColdClone(cancelled, Options{})
	if s.Nodes != 0 || s.StopReason != StopCancelled {
		t.Fatalf("cancelled ctx (cold clone): nodes %d reason %q", s.Nodes, s.StopReason)
	}
}

// TestWarmTelemetry checks the node-telemetry satellite: warm resolves and
// cold fallbacks are counted on the Solution and mirrored into obs.
func TestWarmTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	p := fractionalKnapsack(12, 7)
	s := p.Solve(Options{Obs: reg})
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if s.NodeResolves == 0 {
		t.Fatal("NodeResolves = 0: the warm path never engaged")
	}
	if s.ColdFallbacks == 0 {
		t.Fatal("ColdFallbacks = 0: even the root must be counted as a cold solve")
	}
	if s.DualPivots == 0 {
		t.Fatal("DualPivots = 0: bound tightenings should need dual repair on this instance")
	}
	if got := reg.Counter("milp.nodes").Value(); got != int64(s.Nodes) {
		t.Fatalf("milp.nodes = %d, want %d", got, s.Nodes)
	}
	if got := reg.Counter("milp.warm_hits").Value(); got != int64(s.NodeResolves) {
		t.Fatalf("milp.warm_hits = %d, want %d", got, s.NodeResolves)
	}
	// Warm solves should dominate: every non-root conclusive node resolves
	// from its parent basis on this well-behaved instance.
	if s.NodeResolves < s.ColdFallbacks {
		t.Fatalf("warm resolves %d < cold fallbacks %d", s.NodeResolves, s.ColdFallbacks)
	}
}

// TestConcurrentSolvesSharePools is the in-package -race leg: concurrent
// solves of DIFFERENT problems draw solvers and basis snapshots from the
// same package-level pools (bbSolverPool, basisPool), as alloc's concurrent
// restarts do, and each must still equal its own sequential solve bitwise.
// Every goroutine solves its problem twice, so a pooled solver that kept
// another problem's state would show up as a mismatch. The instances are
// seeds 5–12 of TestWarmParallelDeterminism: all one shape, and sensitive
// enough that skipping the cold-solve basis invalidation fails this test.
func TestConcurrentSolvesSharePools(t *testing.T) {
	const searches = 8
	probs := make([]*Problem, searches)
	refs := make([]*Solution, searches)
	for i := range probs {
		probs[i] = randomMILP(9, 2, 6, uint64(i+5)*977)
		refs[i] = probs[i].Solve(Options{})
	}
	var wg sync.WaitGroup
	sols := make([][2]*Solution, searches)
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := probs[i].Clone()
			sols[i][0] = p.Solve(Options{})
			sols[i][1] = p.Solve(Options{})
		}(i)
	}
	wg.Wait()
	for i, pair := range sols {
		for k, s := range pair {
			sameSolution(t, fmt.Sprintf("problem %d solve %d", i, k), s, refs[i])
		}
	}
}

// TestColdCloneOracleHistoryFree pins the oracle's independence from solver
// history: solving the packing MILP, then an unrelated packing MILP of the
// same shape, then the first one again must explore exactly the same tree,
// so node counts compared against the oracle mean something. The packing
// relaxations are degenerate, so a warm-started node LP can land on a
// different optimal vertex and branch differently.
func TestColdCloneOracleHistoryFree(t *testing.T) {
	ctx := context.Background()
	p := benchPackingMILP()
	first := p.solveColdClone(ctx, Options{})
	packingMILP([]int{3, 7, 2, 4, 5}).solveColdClone(ctx, Options{})
	again := p.solveColdClone(ctx, Options{})
	if first.Nodes != again.Nodes || first.Status != again.Status ||
		math.Float64bits(first.Objective) != math.Float64bits(again.Objective) {
		t.Fatalf("oracle solve changed after an unrelated solve: %v/%d nodes/%v, then %v/%d nodes/%v",
			first.Status, first.Nodes, first.Objective, again.Status, again.Nodes, again.Objective)
	}
}
