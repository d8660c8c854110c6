package lp_test

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/te"
	"repro/internal/topology"
)

// This file pins production optimal-MLU answers (te.OptimalMLU and
// te.DeltaMLUSolver, both on the revised engine) to the dense tableau
// oracle. The oracle's LPs are rebuilt here from the path set, so the
// comparison covers te's formulation code as well as the simplex.

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	s := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / s
}

// gravityTM draws one deterministic gravity-like traffic matrix.
func gravityTM(ps *paths.PathSet, scale float64, r *rng.RNG) te.TrafficMatrix {
	tm := make(te.TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = scale * r.Uniform(0.05, 1)
	}
	return tm
}

func evalTopologies() map[string]*topology.Graph {
	return map[string]*topology.Graph{
		"abilene": topology.Abilene(),
		"geant":   topology.Geant(),
		"b4":      topology.B4(),
	}
}

// pathMLULP is te.MLUSolver's path formulation: one split variable per path
// slot of every loaded pair, Σ_k x_{i,k} = 1 per loaded pair, and
// Σ d_i x_{i,k} [e on path] − cap_e·u ≤ 0 per loaded edge, minimizing u.
func pathMLULP(ps *paths.PathSet, tm te.TrafficMatrix) *lp.Problem {
	offsets, total := ps.Offsets()
	p := lp.NewProblem()
	u := p.AddVariable("u", 0, math.Inf(1))
	xs := make([]lp.VarID, total)
	for i, pp := range ps.PairPaths {
		if tm[i] == 0 {
			continue
		}
		norm := lp.NewExpr()
		for k := range pp {
			xs[offsets[i]+k] = p.AddVariable("", 0, math.Inf(1))
			norm.Add(1, xs[offsets[i]+k])
		}
		p.AddConstraint("", norm, lp.EQ, 1)
	}
	g := ps.Graph
	for e := 0; e < g.NumEdges(); e++ {
		expr := lp.NewExpr()
		for i, pp := range ps.PairPaths {
			if tm[i] == 0 {
				continue
			}
			for k, path := range pp {
				for _, eid := range path.Edges {
					if eid == e {
						expr.Add(tm[i], xs[offsets[i]+k])
					}
				}
			}
		}
		if len(expr.Terms) == 0 {
			continue
		}
		expr.Add(-g.Edge(e).Capacity, u)
		p.AddConstraint("", expr, lp.LE, 0)
	}
	p.SetObjective(lp.Minimize, lp.NewExpr().Add(1, u))
	return p
}

// flowMLULP is te.DeltaMLUSolver's flow formulation: Σ_k f_{i,k} ≥ d_i per
// pair with paths and Σ f on e − cap_e·u ≤ 0 per edge, minimizing u. Demands
// live only in the right-hand side; demandCon maps a pair to its GE row (-1
// when the pair has no paths).
func flowMLULP(ps *paths.PathSet) (p *lp.Problem, demandCon []int) {
	offsets, total := ps.Offsets()
	p = lp.NewProblem()
	u := p.AddVariable("u", 0, math.Inf(1))
	fs := make([]lp.VarID, total)
	demandCon = make([]int, ps.NumPairs())
	for i, pp := range ps.PairPaths {
		demandCon[i] = -1
		if len(pp) == 0 {
			continue
		}
		expr := lp.NewExpr()
		for k := range pp {
			fs[offsets[i]+k] = p.AddVariable("", 0, math.Inf(1))
			expr.Add(1, fs[offsets[i]+k])
		}
		demandCon[i] = p.AddConstraint("", expr, lp.GE, 0)
	}
	g := ps.Graph
	for e := 0; e < g.NumEdges(); e++ {
		expr := lp.NewExpr()
		for i, pp := range ps.PairPaths {
			for k, path := range pp {
				for _, eid := range path.Edges {
					if eid == e {
						expr.Add(1, fs[offsets[i]+k])
						break
					}
				}
			}
		}
		if len(expr.Terms) == 0 {
			continue
		}
		expr.Add(-g.Edge(e).Capacity, u)
		p.AddConstraint("", expr, lp.LE, 0)
	}
	p.SetObjective(lp.Minimize, lp.NewExpr().Add(1, u))
	return p, demandCon
}

// TestMLURevisedMatchesDense pins production te.OptimalMLU to the dense
// oracle on the evaluation topologies: identical MLU objectives to 1e-9 rel
// across a perturbed matrix sequence, and production splits that attain the
// claimed optimum on the network.
func TestMLURevisedMatchesDense(t *testing.T) {
	for name, g := range evalTopologies() {
		ps := paths.NewPathSet(g, 4)
		dense := lp.NewDenseSolver(false)
		r := rng.New(5)
		scale := g.AvgLinkCapacity() / 8
		for iter := 0; iter < 6; iter++ {
			tm := gravityTM(ps, scale, r)
			ds := dense.Solve(pathMLULP(ps, tm))
			if ds.Status != lp.StatusOptimal {
				t.Fatalf("%s iter %d: dense oracle %v", name, iter, ds.Status)
			}
			rMLU, rSplits, err := te.OptimalMLU(ps, tm)
			if err != nil {
				t.Fatalf("%s iter %d: production: %v", name, iter, err)
			}
			if d := relDiff(ds.Objective, rMLU); d > 1e-9 {
				t.Fatalf("%s iter %d: dense MLU %.15g production %.15g (rel %.3g)", name, iter, ds.Objective, rMLU, d)
			}
			if got, _ := te.MLU(ps, tm, rSplits); relDiff(got, rMLU) > 1e-7 {
				t.Fatalf("%s iter %d: production splits achieve MLU %.12g, LP claims %.12g", name, iter, got, rMLU)
			}
		}
		if te.SolverStatsFor(ps).Pivots == 0 {
			t.Fatalf("%s: production solver reported zero pivots", name)
		}
	}
}

// TestDeltaSolverRevisedMatchesDense runs the RHS-delta flow solver against
// the dense oracle's own ResolveRHS over a demand sequence with occasional
// large swings, so production exercises zero-pivot hits AND dual-simplex
// repairs while the oracle exercises its tableau fast path and fallbacks.
func TestDeltaSolverRevisedMatchesDense(t *testing.T) {
	iters := map[string]int{"abilene": 40, "geant": 5, "b4": 40}
	for name, g := range evalTopologies() {
		ps := paths.NewPathSet(g, 4)
		prod := te.NewDeltaMLUSolver(ps)
		p, demandCon := flowMLULP(ps)
		dense := lp.NewDenseSolver(true)
		r := rng.New(17)
		tm := gravityTM(ps, g.AvgLinkCapacity()/8, r)
		for iter := 0; iter < iters[name]; iter++ {
			for i, ci := range demandCon {
				if ci >= 0 {
					p.SetConstraintRHS(ci, tm[i])
				}
			}
			var ds *lp.Solution
			if iter == 0 {
				ds = dense.Solve(p)
			} else {
				ds = dense.ResolveRHS(p)
			}
			if ds.Status != lp.StatusOptimal {
				t.Fatalf("%s iter %d: dense oracle %v", name, iter, ds.Status)
			}
			rMLU, _, err := prod.Solve(tm)
			if err != nil {
				t.Fatalf("%s iter %d: production: %v", name, iter, err)
			}
			if d := relDiff(ds.Objective, rMLU); d > 1e-9 {
				t.Fatalf("%s iter %d: dense MLU %.15g production %.15g (rel %.3g)", name, iter, ds.Objective, rMLU, d)
			}
			// Mostly single-pair probes (ResolveRHS fast-path territory) with
			// a big kick to one pair in fifty every 5th iteration to force
			// primal infeasibility.
			if iter%5 == 3 {
				for k := 0; k <= len(tm)/50; k++ {
					tm[r.Intn(len(tm))] *= 3
				}
			} else {
				tm[r.Intn(len(tm))] *= r.Uniform(0.9, 1.1)
			}
		}
		rs := prod.Stats()
		if rs.RHSAttempts == 0 {
			t.Fatalf("%s: delta solver never took the RHS fast path", name)
		}
		if rs.DualResolves == 0 {
			t.Fatalf("%s: no RHS delta was repaired by the dual simplex — the big kicks should force it", name)
		}
		if dense.Stats.RHSAttempts.Load() == 0 {
			t.Fatalf("%s: dense oracle never reached its RHS fast path", name)
		}
		t.Logf("%s: production attempts=%d zero-pivot hits=%d dual resolves=%d; dense rhs hits=%d/%d",
			name, rs.RHSAttempts, rs.RHSHits, rs.DualResolves, dense.Stats.RHSHits.Load(), dense.Stats.RHSAttempts.Load())
	}
}
