package milp

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/lp"
)

// benchPackingMILP is the alloc-style packing MILP (integral placement of
// typed requests over capacitated hosts minimizing peak utilization) at a
// size whose tree runs a few hundred nodes — the analyzer's RatioOverride
// workload the warm engine was built for.
func benchPackingMILP() *Problem { return packingMILP([]int{6, 5, 3, 2, 7}) }

// packingMILP is the packing MILP for the given per-type request counts;
// every count vector of length 5 gives the same LP shape.
func packingMILP(counts []int) *Problem {
	dem := [][]float64{{1, 2}, {2, 1}, {4, 4}, {8, 2}, {1, 1}}
	caps := [][]float64{{16, 16}, {32, 24}, {24, 32}}
	T, H, R := len(counts), len(caps), 2
	p := NewProblem()
	u := p.AddVariable("u", 0, math.Inf(1))
	y := make([]lp.VarID, T*H)
	for t := 0; t < T; t++ {
		for h := 0; h < H; h++ {
			y[t*H+h] = p.AddInteger(fmt.Sprintf("y_%d_%d", t, h), 0, float64(counts[t]))
		}
	}
	for t := 0; t < T; t++ {
		e := lp.NewExpr()
		for h := 0; h < H; h++ {
			e.Add(1, y[t*H+h])
		}
		p.AddConstraint("", e, lp.EQ, float64(counts[t]))
	}
	for h := 0; h < H; h++ {
		for r := 0; r < R; r++ {
			e := lp.NewExpr()
			for t := 0; t < T; t++ {
				e.Add(dem[t][r], y[t*H+h])
			}
			e.Add(-caps[h][r], u)
			p.AddConstraint("", e, lp.LE, 0)
		}
	}
	p.SetObjective(lp.Minimize, lp.NewExpr().Add(1, u))
	return p
}

// benchNodes runs the packing MILP b.N times through solve and reports
// node throughput, warm engine vs cold-clone oracle.
func benchNodes(b *testing.B, solve func(*Problem) *Solution) {
	p := benchPackingMILP()
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := solve(p)
		if s.Status != Optimal {
			b.Fatalf("status %v after %d nodes", s.Status, s.Nodes)
		}
		nodes += s.Nodes
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/solve")
}

// BenchmarkPackingNodesColdClone is the oracle baseline: full LP clone and
// cold solve per node.
func BenchmarkPackingNodesColdClone(b *testing.B) {
	benchNodes(b, func(p *Problem) *Solution {
		return p.solveColdClone(context.Background(), Options{})
	})
}

// BenchmarkPackingNodesWarm is the clone-free warm engine.
func BenchmarkPackingNodesWarm(b *testing.B) {
	benchNodes(b, func(p *Problem) *Solution { return p.Solve(Options{}) })
}
