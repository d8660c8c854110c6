package milp

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/rng"
)

// goExecutor is the simplest possible Executor: one goroutine per task.
type goExecutor struct{}

func (goExecutor) Run(task func()) { go task() }

// serialExecutor runs every task inline, in submission order — a
// pathological schedule (full serialization) that a correct engine must not
// be able to distinguish from any other. Safe here because wave tasks never
// block on one another: the first task drains the shared job cursor and the
// rest return immediately.
type serialExecutor struct{}

func (serialExecutor) Run(task func()) { task() }

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
// legacy cold-clone engine on Status, and (when optimal) on the incumbent
// objective within 1e-9 and on BestBound == Objective. Both engines run the
// same revised LP engine, so this pins the branch-and-bound logic (warm
// bound re-solves, snapshots, wave scheduling), not the LP; lp's
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
			cold := p.Solve(Options{ColdClone: true})
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

// TestWarmParallelDeterminism is the scheduling-independence contract:
// Status, Objective, BestBound, Nodes, and X must be bitwise identical for
// any worker count and for pool-executed solves, given the same WaveWidth.
func TestWarmParallelDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		p := randomMILP(9, 2, 6, seed*977)
		ref := p.Solve(Options{Workers: 1})
		configs := []Options{
			{Workers: 2},
			{Workers: 8},
			{Workers: 4, Executor: goExecutor{}},
			{Workers: 4, Executor: serialExecutor{}},
		}
		for ci, o := range configs {
			got := p.Solve(o)
			if got.Status != ref.Status || got.Nodes != ref.Nodes ||
				got.Objective != ref.Objective || got.BestBound != ref.BestBound {
				t.Fatalf("seed %d config %d: got %v/%d/%x/%x, want %v/%d/%x/%x",
					seed, ci, got.Status, got.Nodes, got.Objective, got.BestBound,
					ref.Status, ref.Nodes, ref.Objective, ref.BestBound)
			}
			if len(got.X) != len(ref.X) {
				t.Fatalf("seed %d config %d: X lengths %d vs %d", seed, ci, len(got.X), len(ref.X))
			}
			for j := range got.X {
				if got.X[j] != ref.X[j] {
					t.Fatalf("seed %d config %d: X[%d] = %x, want %x (not bitwise)",
						seed, ci, j, got.X[j], ref.X[j])
				}
			}
		}
	}
}

// TestWarmWaveWidthIsSearchDefining documents the flip side of the
// determinism contract: WaveWidth is part of the search definition, and
// repeated solves at ANY fixed width are self-consistent.
func TestWarmWaveWidthIsSearchDefining(t *testing.T) {
	p := fractionalKnapsack(12, 3)
	for _, ww := range []int{1, 4, 8, 16} {
		a := p.Solve(Options{WaveWidth: ww})
		b := p.Solve(Options{WaveWidth: ww, Workers: 8})
		if a.Status != Optimal || b.Status != Optimal {
			t.Fatalf("width %d: statuses %v/%v", ww, a.Status, b.Status)
		}
		if a.Objective != b.Objective || a.Nodes != b.Nodes {
			t.Fatalf("width %d: obj %v/%v nodes %d/%d", ww, a.Objective, b.Objective, a.Nodes, b.Nodes)
		}
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
	s = p.SolveCtx(cancelled, Options{ColdClone: true})
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

// TestConcurrentParallelSolves is the in-package -race leg: many concurrent
// PARALLEL solves (each spawning wave workers that share the package-level
// solver and basis pools) must all agree with the sequential reference. The
// variant sharing one work-stealing serve.Pool lives in internal/serve
// (TestPoolBackedMILPDeterminism) — serve cannot be imported from here
// without a cycle through whitebox.
func TestConcurrentParallelSolves(t *testing.T) {
	base := randomMILP(8, 2, 6, 42)
	ref := base.Solve(Options{Workers: 1})

	const searches = 8
	var wg sync.WaitGroup
	sols := make([]*Solution, searches)
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sols[i] = base.Clone().Solve(Options{Workers: 3})
		}(i)
	}
	wg.Wait()
	for i, s := range sols {
		if s.Status != ref.Status || s.Objective != ref.Objective ||
			s.BestBound != ref.BestBound || s.Nodes != ref.Nodes {
			t.Fatalf("search %d: %v/%v/%v/%d, want %v/%v/%v/%d",
				i, s.Status, s.Objective, s.BestBound, s.Nodes,
				ref.Status, ref.Objective, ref.BestBound, ref.Nodes)
		}
	}
}
