package te

import (
	"testing"

	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

// waxman100PS caches the 100-node benchmark path set: the Go bench harness
// re-invokes each Benchmark function while calibrating b.N, and K-shortest
// paths over 9900 pairs cost more than the solve being measured.
var waxman100PS *paths.PathSet

func waxmanPS() *paths.PathSet {
	if waxman100PS == nil {
		g := topology.Waxman(100, 4, 5, 10, rng.New(7))
		waxman100PS = paths.NewPathSet(g, 4)
	}
	return waxman100PS
}

// BenchmarkWaxman100 is the acceptance point for the sparse revised engine: a
// tegen-grown 100-node Waxman topology (400 directed edges, 9900 pairs, K=4
// → ~10,300 LP rows, ~40,000 columns; a dense tableau at this size would be
// ~3–4 GB): a from-scratch cold solve, the only kind production runs.
func BenchmarkWaxman100(b *testing.B) {
	ps := waxmanPS()
	scale := ps.Graph.AvgLinkCapacity() / float64(ps.Graph.NumNodes())
	b.Run("cold", func(b *testing.B) {
		tm := gravityTM(ps, scale, rng.New(1))
		var pivots int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewMLUSolver(ps)
			if _, _, err := s.Solve(tm); err != nil {
				b.Fatal(err)
			}
			pivots += int64(s.Stats().Pivots)
		}
		b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	})
}
