// Package te implements the traffic-engineering substrate of the DOTE
// pipeline (Figure 2): traffic matrices, routing demands over predetermined
// path sets according to split ratios, link loads and the maximum link
// utilization (MLU) objective, plus the LP-based optimal baselines the
// performance ratio (Eq. 2) compares against.
package te

import (
	"context"
	"fmt"
	"math"

	"repro/internal/paths"
)

// TrafficMatrix holds one demand value per ordered source-destination pair,
// indexed consistently with PathSet.Pairs.
type TrafficMatrix []float64

// Total returns the sum of all demands.
func (tm TrafficMatrix) Total() float64 {
	s := 0.0
	for _, d := range tm {
		s += d
	}
	return s
}

// Max returns the largest demand.
func (tm TrafficMatrix) Max() float64 {
	m := 0.0
	for _, d := range tm {
		if d > m {
			m = d
		}
	}
	return m
}

// Splits is a flattened vector of per-(pair, path) split ratios laid out by
// PathSet.Offsets. A valid split vector is non-negative and sums to one
// within each pair's segment.
type Splits []float64

// UniformSplits returns splits that divide each pair's traffic evenly over
// its candidate paths.
func UniformSplits(ps *paths.PathSet) Splits {
	off, total := ps.Offsets()
	s := make(Splits, total)
	for i, pp := range ps.PairPaths {
		if len(pp) == 0 {
			continue
		}
		v := 1 / float64(len(pp))
		for k := range pp {
			s[off[i]+k] = v
		}
	}
	return s
}

// ShortestPathSplits returns splits that put all traffic on each pair's
// first (minimum weight) path.
func ShortestPathSplits(ps *paths.PathSet) Splits {
	off, total := ps.Offsets()
	s := make(Splits, total)
	for i, pp := range ps.PairPaths {
		if len(pp) > 0 {
			s[off[i]] = 1
		}
	}
	return s
}

// ValidateSplits checks non-negativity and per-pair normalization.
func ValidateSplits(ps *paths.PathSet, s Splits) error {
	off, total := ps.Offsets()
	if len(s) != total {
		return fmt.Errorf("te: splits length %d, want %d", len(s), total)
	}
	for i, pp := range ps.PairPaths {
		sum := 0.0
		for k := range pp {
			v := s[off[i]+k]
			if v < -1e-9 {
				return fmt.Errorf("te: negative split %g for pair %d path %d", v, i, k)
			}
			sum += v
		}
		if len(pp) > 0 && math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("te: pair %d splits sum to %g, want 1", i, sum)
		}
	}
	return nil
}

// LinkLoads routes tm according to s and returns the absolute load on each
// directed edge.
func LinkLoads(ps *paths.PathSet, tm TrafficMatrix, s Splits) []float64 {
	g := ps.Graph
	loads := make([]float64, g.NumEdges())
	off, _ := ps.Offsets()
	for i, pp := range ps.PairPaths {
		d := tm[i]
		if d == 0 {
			continue
		}
		for k, path := range pp {
			f := d * s[off[i]+k]
			if f == 0 {
				continue
			}
			for _, eid := range path.Edges {
				loads[eid] += f
			}
		}
	}
	return loads
}

// MLU returns the maximum link utilization when routing tm with splits s,
// along with the ID of the most utilized edge.
func MLU(ps *paths.PathSet, tm TrafficMatrix, s Splits) (float64, int) {
	loads := LinkLoads(ps, tm, s)
	g := ps.Graph
	best, arg := 0.0, -1
	for i, l := range loads {
		u := l / g.Edge(i).Capacity
		if u > best {
			best, arg = u, i
		}
	}
	return best, arg
}

// OptimalMLU solves the path-based LP
//
//	min u  s.t.  Σ_k x_{i,k} = 1 (pairs with demand),  link loads ≤ u·cap
//
// returning the optimal MLU and the optimal split ratios. Pairs with zero
// demand get their full split on the first path.
//
// Repeated calls on the same PathSet reuse a cached MLUSolver, so the LP is
// rebuilt allocation-free; every solve is cold (see MLUSolver).
func OptimalMLU(ps *paths.PathSet, tm TrafficMatrix) (float64, Splits, error) {
	return solverFor(ps).Solve(tm)
}

// OptimalMLUCtx is OptimalMLU under a caller-controlled context: the
// context's deadline bounds the simplex itself (see MLUSolver.SolveCtx) and
// cancellation surfaces as ctx.Err().
func OptimalMLUCtx(ctx context.Context, ps *paths.PathSet, tm TrafficMatrix) (float64, Splits, error) {
	return solverFor(ps).SolveCtx(ctx, tm)
}

// DeliveredFlow returns the total traffic actually delivered when routing
// tm with splits s under proportional shedding: flow on a path is scaled by
// 1/max(1, u_max) where u_max is the largest utilization along the path.
// This realizes the total-flow objective of §4 ("Other TE Objectives") for
// a system whose splits may oversubscribe links.
func DeliveredFlow(ps *paths.PathSet, tm TrafficMatrix, s Splits) float64 {
	loads := LinkLoads(ps, tm, s)
	g := ps.Graph
	util := make([]float64, len(loads))
	for e := range loads {
		util[e] = loads[e] / g.Edge(e).Capacity
	}
	off, _ := ps.Offsets()
	total := 0.0
	for i, pp := range ps.PairPaths {
		d := tm[i]
		if d == 0 {
			continue
		}
		for k, path := range pp {
			f := d * s[off[i]+k]
			if f == 0 {
				continue
			}
			worst := 1.0
			for _, eid := range path.Edges {
				if util[eid] > worst {
					worst = util[eid]
				}
			}
			total += f / worst
		}
	}
	return total
}

// PerformanceRatio computes MLU_system(d) / MLU_OPT(d) — the paper's Eq. 2 —
// for a system that produced splits s on traffic matrix tm. Returns the
// ratio along with both MLUs. A zero traffic matrix yields ratio 1.
func PerformanceRatio(ps *paths.PathSet, tm TrafficMatrix, s Splits) (ratio, sysMLU, optMLU float64, err error) {
	return PerformanceRatioCtx(context.Background(), ps, tm, s)
}

// PerformanceRatioCtx is PerformanceRatio under a caller-controlled context
// (the optimal-MLU LP inherits the context's deadline).
func PerformanceRatioCtx(ctx context.Context, ps *paths.PathSet, tm TrafficMatrix, s Splits) (ratio, sysMLU, optMLU float64, err error) {
	sysMLU, _ = MLU(ps, tm, s)
	optMLU, _, err = OptimalMLUCtx(ctx, ps, tm)
	if err != nil {
		return 0, 0, 0, err
	}
	if optMLU <= 0 {
		return 1, sysMLU, optMLU, nil
	}
	return sysMLU / optMLU, sysMLU, optMLU, nil
}
