package lp_test

import (
	"testing"

	"repro/internal/lp"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/te"
	"repro/internal/topology"
)

// BenchmarkMLUEngines times one optimal-MLU solve (te.MLUSolver's path
// formulation, rebuilt from the path set) on the production revised engine
// and on the dense tableau oracle, on Abilene and GÉANT:
//
//   - cold: a fresh solver per solve (every production solve is cold);
//   - warm (dense oracle only): one oracle cycling through a sequence of
//     lightly perturbed matrices, warm-starting from its previous basis.
//
// The LPs are built before the timer starts, so only solves are measured.
//
//	go test -run xxx -bench MLUEngines -benchtime 20x ./internal/lp/
func BenchmarkMLUEngines(b *testing.B) {
	engines := []struct {
		name  string
		solve func() func(*lp.Problem) *lp.Solution
	}{
		{"revised", func() func(*lp.Problem) *lp.Solution { return lp.NewSolver().Solve }},
		{"dense", func() func(*lp.Problem) *lp.Solution { return lp.NewDenseSolver().Solve }},
	}
	for _, topo := range []struct {
		name string
		g    *topology.Graph
	}{{"abilene", topology.Abilene()}, {"geant", topology.Geant()}} {
		ps := paths.NewPathSet(topo.g, 4)
		r := rng.New(3)
		base := gravityTM(ps, topo.g.AvgLinkCapacity()/8, r)
		probs := make([]*lp.Problem, 16)
		for k := range probs {
			tm := append(te.TrafficMatrix(nil), base...)
			i := r.Intn(len(tm))
			tm[i] *= r.Uniform(0.9, 1.1)
			probs[k] = pathMLULP(ps, tm)
		}
		for _, eng := range engines {
			b.Run(topo.name+"/cold/"+eng.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if sol := eng.solve()(probs[i%len(probs)]); sol.Status != lp.StatusOptimal {
						b.Fatalf("status %v", sol.Status)
					}
				}
			})
		}
		b.Run(topo.name+"/warm/dense", func(b *testing.B) {
			dense := lp.NewDenseSolver()
			dense.Solve(probs[len(probs)-1])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sol := dense.Solve(probs[i%len(probs)]); sol.Status != lp.StatusOptimal {
					b.Fatalf("status %v", sol.Status)
				}
			}
		})
	}
}
