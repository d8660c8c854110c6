package lp

import (
	"testing"

	"repro/internal/rng"
)

// benchTransport builds a 24-source × 32-route transportation LP (768
// variables, 56 rows) with enough slack capacity that random demand
// perturbations stay feasible — big enough that pivot counts separate the
// engines, small enough that the dense leg stays quick.
func benchTransport(p *Problem, r *rng.RNG) (d, caps []float64) {
	d = make([]float64, 24)
	caps = make([]float64, 32)
	total := 0.0
	for i := range d {
		d[i] = r.Uniform(1, 5)
		total += d[i]
	}
	for j := range caps {
		caps[j] = total / float64(len(caps)) * r.Uniform(1.2, 1.8)
	}
	buildTransportLP(p, d, caps)
	return d, caps
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

// BenchmarkResolveRHS measures the tentpole's RHS-delta contract. Each op
// perturbs the demand rows of a solved transportation LP and re-solves:
//
//   - dual: ResolveRHS on the retained basis — a handful of
//     dual-simplex pivots (dual-pivots/op) when the perturbation breaks
//     primal feasibility, zero when it doesn't;
//   - cold: a pristine Solve of the identical perturbed instance —
//     the pivot count the dual path is saving (pivots/op).
//
// The committed BENCH_PR6.json carries the measured pivot-count win.
func BenchmarkResolveRHS(b *testing.B) {
	b.Run("dual", func(b *testing.B) {
		b.ReportAllocs()
		r := rng.New(7)
		p := NewProblem()
		d, _ := benchTransport(p, rng.New(11))
		s := NewSolver()
		if sol := s.Solve(p); sol.Status != StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
		prePivots := s.Stats.Pivots.Load()
		preDual := s.Stats.DualPivots.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for row := range d {
				p.SetConstraintRHS(row, d[row]*r.Uniform(0.5, 1.3))
			}
			if sol := s.ResolveRHS(p); sol.Status != StatusOptimal {
				b.Fatalf("status %v", sol.Status)
			}
		}
		b.ReportMetric(float64(s.Stats.Pivots.Load()-prePivots)/float64(b.N), "pivots/op")
		b.ReportMetric(float64(s.Stats.DualPivots.Load()-preDual)/float64(b.N), "dual-pivots/op")
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		r := rng.New(7)
		p := NewProblem()
		d, _ := benchTransport(p, rng.New(11))
		var pivots int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for row := range d {
				p.SetConstraintRHS(row, d[row]*r.Uniform(0.5, 1.3))
			}
			s := NewSolver()
			if sol := s.Solve(p); sol.Status != StatusOptimal {
				b.Fatalf("status %v", sol.Status)
			}
			pivots += s.Stats.Pivots.Load()
		}
		b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	})
}
