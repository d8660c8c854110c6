package alloc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/milp"
)

// Quantize rounds a continuous request-mix search point to integer
// per-type counts clamped to [0, MaxCount]. The searchers explore a
// continuous box; the MILP baseline only accepts whole VMs. The quantum
// matches core.NewEvalCache(·, 1.0) keys, so memoization dedups exactly
// the points that score identically.
func (s *System) Quantize(mix []float64) []int {
	n := make([]int, s.T)
	for t := 0; t < s.T; t++ {
		v := math.Round(mix[t])
		if v < 0 {
			v = 0
		}
		if v > s.Cfg.MaxCount {
			v = s.Cfg.MaxCount
		}
		n[t] = int(v)
	}
	return n
}

// OptimalPacking solves the integral bin-packing MILP for the request
// counts n: minimize the peak utilization u subject to every request being
// placed and every host fitting its load within u·capacity:
//
//	min u
//	s.t.  Σ_h y[t][h] = n[t]                        ∀ t
//	      Σ_t dem[t][r]·y[t][h] − cap[h][r]·u ≤ 0   ∀ h, r
//	      y[t][h] ∈ {0, …, n[t]},  u ≥ 0
//
// This is the opaque optimal-baseline component of the case study: the
// analyzer only ever sees its objective value. The solve runs under the
// configured node budget so scoring stays deterministic.
func (s *System) OptimalPacking(n []int) *milp.Solution {
	p := milp.NewProblem()
	u := p.AddVariable("u", 0, math.Inf(1))
	y := make([]lp.VarID, s.T*s.H)
	for t := 0; t < s.T; t++ {
		for h := 0; h < s.H; h++ {
			y[t*s.H+h] = p.AddInteger(fmt.Sprintf("y_%d_%d", t, h), 0, float64(n[t]))
		}
	}
	for t := 0; t < s.T; t++ {
		e := lp.NewExpr()
		for h := 0; h < s.H; h++ {
			e.Add(1, y[t*s.H+h])
		}
		p.AddConstraint(fmt.Sprintf("place_%d", t), e, lp.EQ, float64(n[t]))
	}
	for h := 0; h < s.H; h++ {
		for r := 0; r < s.R; r++ {
			e := lp.NewExpr()
			for t := 0; t < s.T; t++ {
				if d := s.Cfg.TypeDemands[t][r]; d != 0 {
					e.Add(d, y[t*s.H+h])
				}
			}
			e.Add(-s.Cfg.HostCaps[h][r], u)
			p.AddConstraint(fmt.Sprintf("cap_%d_%d", h, r), e, lp.LE, 0)
		}
	}
	obj := lp.NewExpr().Add(1, u)
	p.SetObjective(lp.Minimize, obj)
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return p.SolveCtx(ctx, milp.Options{
		MaxNodes: s.Cfg.MILPMaxNodes,
		MaxTime:  s.Cfg.MILPMaxTime,
		Obs:      s.Obs,
	})
}

// Ratio is the alloc analog of the TE performance ratio (Eq. 2) and plugs
// straight into core.AttackTarget.RatioOverride: the allocator's peak
// utilization on the quantized mix over the packing MILP's optimum for the
// same counts. Ratios above one measure how much fragmentation the learned
// scorer leaves on the table versus an exact packer.
func (s *System) Ratio(x []float64) (ratio, sys, opt float64, err error) {
	n := s.Quantize(x)
	total := 0
	for _, c := range n {
		total += c
	}
	if total == 0 {
		return 1, 0, 0, nil
	}
	mix := make([]float64, s.T)
	for t, c := range n {
		mix[t] = float64(c)
	}
	sys = s.Forward(mix)
	ms := s.OptimalPacking(n)
	if ms.Status != milp.Optimal && ms.Status != milp.Feasible {
		// No usable baseline under the node budget: reject the step (the
		// searchers contain per-restart eval faults and move on).
		return 0, 0, 0, fmt.Errorf("alloc: packing MILP %v after %d nodes", ms.Status, ms.Nodes)
	}
	opt = ms.Objective
	if opt <= 1e-12 {
		return 1, sys, opt, nil
	}
	return sys / opt, sys, opt, nil
}

// FractionalOptimal solves the LP relaxation of the packing problem for an
// arbitrary (not necessarily integral) load matrix: place load[t][r]
// fractionally across hosts to minimize peak utilization. This is the
// promoted version of examples/scheduler's ad-hoc baseline — one shared,
// global-free implementation both case-study examples call.
func FractionalOptimal(load, caps [][]float64) (float64, error) {
	T := len(load)
	H := len(caps)
	if T == 0 || H == 0 {
		return 0, fmt.Errorf("alloc: FractionalOptimal needs load and capacity rows")
	}
	R := len(caps[0])
	p := lp.NewProblem()
	u := p.AddVariable("u", 0, math.Inf(1))
	f := make([]lp.VarID, T*H)
	for t := 0; t < T; t++ {
		for h := 0; h < H; h++ {
			f[t*H+h] = p.AddVariable(fmt.Sprintf("f_%d_%d", t, h), 0, 1)
		}
	}
	for t := 0; t < T; t++ {
		e := lp.NewExpr()
		for h := 0; h < H; h++ {
			e.Add(1, f[t*H+h])
		}
		p.AddConstraint(fmt.Sprintf("split_%d", t), e, lp.EQ, 1)
	}
	for h := 0; h < H; h++ {
		for r := 0; r < R; r++ {
			e := lp.NewExpr()
			for t := 0; t < T; t++ {
				if load[t][r] != 0 {
					e.Add(load[t][r], f[t*H+h])
				}
			}
			e.Add(-caps[h][r], u)
			p.AddConstraint(fmt.Sprintf("cap_%d_%d", h, r), e, lp.LE, 0)
		}
	}
	p.SetObjective(lp.Minimize, lp.NewExpr().Add(1, u))
	s := p.Solve()
	if s.Status != lp.StatusOptimal {
		return 0, fmt.Errorf("alloc: fractional packing LP %v", s.Status)
	}
	return s.Objective, nil
}

// MixReport is the human-facing explanation of one request mix, used by the
// CLI and the example self-check.
type MixReport struct {
	Counts        []int   `json:"counts"`
	Ratio         float64 `json:"ratio"`
	SysUtil       float64 `json:"sys_util"`
	OptUtil       float64 `json:"opt_util"`
	Fragmentation float64 `json:"fragmentation"`
	MILPStatus    string  `json:"milp_status"`
	MILPNodes     int     `json:"milp_nodes"`
	BestBound     float64 `json:"best_bound"`
	Gap           float64 `json:"gap"`
	LPBound       float64 `json:"lp_bound"`
	// Warm-engine solver telemetry (see milp.Solution): node relaxations
	// completed warm from a parent basis, the dual pivots they spent, and
	// the relaxations that needed a full cold solve.
	NodeResolves  int `json:"node_resolves"`
	DualPivots    int `json:"dual_pivots"`
	ColdFallbacks int `json:"cold_fallbacks"`
}

// Explain evaluates a mix and reports every quantity of interest: the
// system and MILP-optimal peak utilizations, their ratio, the fragmentation
// score, and the MILP's own soundness telemetry (status, nodes, BestBound,
// gap) — the numbers the soundness fixes in internal/milp exist to make
// trustworthy.
func (s *System) Explain(x []float64) (*MixReport, error) {
	n := s.Quantize(x)
	mix := make([]float64, s.T)
	load := make([][]float64, s.T)
	for t, c := range n {
		mix[t] = float64(c)
		load[t] = make([]float64, s.R)
		for r := 0; r < s.R; r++ {
			load[t][r] = float64(c) * s.Cfg.TypeDemands[t][r]
		}
	}
	rep := &MixReport{
		Counts:        n,
		SysUtil:       s.Forward(mix),
		Fragmentation: s.Fragmentation(mix),
	}
	ms := s.OptimalPacking(n)
	rep.MILPStatus = ms.Status.String()
	rep.MILPNodes = ms.Nodes
	rep.BestBound = ms.BestBound
	rep.NodeResolves = ms.NodeResolves
	rep.DualPivots = ms.DualPivots
	rep.ColdFallbacks = ms.ColdFallbacks
	if ms.Status == milp.Optimal || ms.Status == milp.Feasible {
		rep.OptUtil = ms.Objective
		rep.Gap = ms.Gap()
		if rep.OptUtil > 1e-12 {
			rep.Ratio = rep.SysUtil / rep.OptUtil
		} else {
			rep.Ratio = 1
		}
	} else {
		return rep, fmt.Errorf("alloc: packing MILP %v after %d nodes", ms.Status, ms.Nodes)
	}
	if lb, err := FractionalOptimal(load, s.Cfg.HostCaps); err == nil {
		rep.LPBound = lb
	}
	return rep, nil
}
