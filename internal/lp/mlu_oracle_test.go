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

// This file pins production optimal-MLU answers (te.OptimalMLU on the
// revised engine) to the dense tableau oracle. The oracle's LPs are rebuilt here from the path set, so the
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

// TestMLURevisedMatchesDense pins production te.OptimalMLU to the dense
// oracle on the evaluation topologies: identical MLU objectives to 1e-9 rel
// across a perturbed matrix sequence, and production splits that attain the
// claimed optimum on the network.
func TestMLURevisedMatchesDense(t *testing.T) {
	for name, g := range evalTopologies() {
		ps := paths.NewPathSet(g, 4)
		dense := lp.NewDenseSolver()
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
