package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/te"
)

// Tolerances of the output checks.
const (
	sysTol   = 1e-9 // recomputed system value vs reported (relative)
	ratioTol = 1e-9 // ratio ≥ 1 − ratioTol
	certTol  = 1e-6 // LP certificate: splits attain the claimed optimum (relative)
)

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// certify reports whether splits route tm at the claimed optimal MLU: the
// routing te.MLU computes from the splits must equal opt within certTol.
func certify(ps *paths.PathSet, tm te.TrafficMatrix, opt float64, splits te.Splits) bool {
	m, _ := te.MLU(ps, tm, splits)
	return math.Abs(m-opt) <= certTol*math.Max(opt, 1e-12)
}

// checkLimit bounds one output-check LP re-solve. A re-solve it stops is
// an unfinished check, not a miss: it says the LP is slow, not wrong.
const checkLimit = 30 * time.Second

// verdict is what re-checking one answer found.
type verdict struct {
	miss       int    // output checks the answer missed
	unfinished bool   // a check ran out of time before it could decide
	why        string // the first miss, or the check that did not finish
}

func (v *verdict) fail(format string, args ...any) {
	if v.miss == 0 {
		v.why = fmt.Sprintf(format, args...)
	}
	v.miss++
}

// checkTE re-checks a TE search answer through public calls: the target's
// pipeline must reproduce the reported system MLU, the ratio must be at
// least one, and a cold optimal-MLU solve on a solver of its own, so no
// basis the search warmed can carry over, must agree with the reported
// optimum and return splits that attain it. The re-solve runs for at most
// checkLimit and not past by.
func checkTE(target *core.AttackTarget, res *core.SearchResult, by time.Time) verdict {
	var v verdict
	if sys := target.Pipeline.EvalScalar(res.BestX); relDiff(sys, res.BestSysMLU) > sysTol {
		v.fail("system MLU %.9g recomputed, %.9g reported", sys, res.BestSysMLU)
	}
	if res.BestRatio < 1-ratioTol {
		v.fail("ratio %.9g below 1", res.BestRatio)
	}
	ctx, cancel := context.WithDeadline(context.Background(), by)
	defer cancel()
	ctx, cancel = context.WithTimeout(ctx, checkLimit)
	defer cancel()
	checkOptimum(ctx, &v, target.PS, target.Demand(res.BestX), res.BestOptMLU)
	return v
}

// checkOptimum re-solves the optimal MLU of tm cold, on a solver of its
// own, and checks that the solver's splits attain its claimed optimum and
// that the optimum agrees with the reported one. A re-solve that ctx stops
// leaves the verdict unfinished instead of adding a miss.
func checkOptimum(ctx context.Context, v *verdict, ps *paths.PathSet, tm te.TrafficMatrix, reported float64) {
	opt, splits, err := te.NewMLUSolver(ps).SolveCtx(ctx, tm)
	switch {
	case err != nil && ctx.Err() != nil:
		v.unfinished = true
		if v.miss == 0 {
			v.why = fmt.Sprintf("optimal MLU re-solve stopped: %v", ctx.Err())
		}
	case err != nil:
		v.fail("optimal MLU re-solve: %v", err)
	case !certify(ps, tm, opt, splits):
		m, _ := te.MLU(ps, tm, splits)
		v.fail("LP claims optimum %.9g, its splits route at %.9g", opt, m)
	case math.Abs(opt-reported) > certTol*math.Max(opt, 1e-12):
		v.fail("LP re-solve gives optimum %.9g, search reported %.9g", opt, reported)
	}
}

// checkAlloc re-checks an allocator search answer with Explain: the
// allocator must reproduce the reported peak utilization, the packing
// MILP must reproduce the reported optimum, the ratio must be at least one,
// and the MILP's incumbent may not beat the LP relaxation bound.
func checkAlloc(sys *alloc.System, res *core.SearchResult) verdict {
	var v verdict
	rep, err := sys.Explain(res.BestX)
	if err != nil {
		v.fail("explain: %v", err)
		return v
	}
	if relDiff(rep.SysUtil, res.BestSysMLU) > sysTol {
		v.fail("allocator utilization %.9g recomputed, %.9g reported", rep.SysUtil, res.BestSysMLU)
	}
	if relDiff(rep.OptUtil, res.BestOptMLU) > sysTol {
		v.fail("packing optimum %.9g recomputed, %.9g reported", rep.OptUtil, res.BestOptMLU)
	}
	if res.BestRatio < 1-ratioTol {
		v.fail("ratio %.9g below 1", res.BestRatio)
	}
	if rep.LPBound > rep.OptUtil*(1+certTol) {
		v.fail("MILP incumbent %.9g below its LP relaxation bound %.9g", rep.OptUtil, rep.LPBound)
	}
	return v
}
