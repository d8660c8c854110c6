package lp

import (
	"testing"

	"repro/internal/rng"
)

// benchTransport builds a feasible 24-source × 32-route transportation LP
// (768 variables, 56 rows) — big enough that pivot counts separate the
// engines, small enough that the dense leg stays quick.
func benchTransport(p *Problem, r *rng.RNG) {
	d := make([]float64, 24)
	caps := make([]float64, 32)
	total := 0.0
	for i := range d {
		d[i] = r.Uniform(1, 5)
		total += d[i]
	}
	for j := range caps {
		caps[j] = total / float64(len(caps)) * r.Uniform(1.2, 1.8)
	}
	buildTransportLP(p, d, caps)
}

// BenchmarkColdSolve pits the production revised engine against the dense
// test oracle on identical cold solves of the same instance and reports
// pivot counts alongside wall time.
func BenchmarkColdSolve(b *testing.B) {
	for _, eng := range []struct {
		name  string
		solve func(*Problem) (Status, int64)
	}{
		{"dense", func(p *Problem) (Status, int64) {
			s := &denseSolver{}
			return s.Solve(p).Status, s.Stats.Pivots.Load()
		}},
		{"revised", func(p *Problem) (Status, int64) {
			s := NewSolver()
			return s.Solve(p).Status, s.Stats.Pivots.Load()
		}},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			p := NewProblem()
			benchTransport(p, rng.New(11))
			var pivots int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, pv := eng.solve(p)
				if st != StatusOptimal {
					b.Fatalf("status %v", st)
				}
				pivots += pv
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		})
	}
}
