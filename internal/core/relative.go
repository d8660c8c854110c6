package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/rng"
)

// RelativeTarget compares two learning-enabled systems instead of a system
// against the optimal (§6, "Comparing to other learning-enabled systems"):
// the adversarial objective becomes M_adv(d) = MLU_A(d) / MLU_B(d), so the
// search finds inputs where system A does much worse than system B (e.g.
// DOTE-Hist versus a Teal-like DOTE-Curr).
type RelativeTarget struct {
	// SystemA and SystemB map the input to their respective scalar MLUs.
	// Both consume the SAME input layout.
	SystemA, SystemB *Pipeline
	// InputDim, DemandStart, DemandLen, PS, MaxDemand as in AttackTarget.
	Inner *AttackTarget
}

// NewRelativeTarget wires a comparison: inner supplies the input geometry
// and constraint substrate (its Pipeline field is ignored).
func NewRelativeTarget(a, b *Pipeline, inner *AttackTarget) *RelativeTarget {
	return &RelativeTarget{SystemA: a, SystemB: b, Inner: inner}
}

// Validate checks internal consistency.
func (t *RelativeTarget) Validate() error {
	if t.SystemA == nil || t.SystemB == nil {
		return fmt.Errorf("core: RelativeTarget missing a system")
	}
	probe := *t.Inner
	probe.Pipeline = t.SystemA
	return probe.Validate()
}

// Ratio evaluates MLU_A(x)/MLU_B(x); a vanishing denominator yields 1.
func (t *RelativeTarget) Ratio(x []float64) (ratio, a, b float64) {
	a = t.SystemA.EvalScalar(x)
	b = t.SystemB.EvalScalar(x)
	if b <= 1e-12 {
		return 1, a, b
	}
	return a / b, a, b
}

// RelativeGradientSearch maximizes MLU_A/MLU_B with the same Lagrangian
// feasibility term as the absolute search (the demand must stay routable at
// MLU 1 so the comparison happens on meaningful inputs). The ascent uses
// the gradient of log(A/B) = ∇A/A − ∇B/B, assembled from both systems'
// chain-rule gradients.
func RelativeGradientSearch(t *RelativeTarget, cfg GradientConfig) (*SearchResult, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Iters <= 0 || cfg.Restarts <= 0 {
		return nil, fmt.Errorf("core: RelativeGradientSearch needs positive Iters and Restarts")
	}
	if cfg.EvalEvery < 1 {
		cfg.EvalEvery = 10
	}
	// An instrumented relative search times both systems' pipeline stages;
	// same-named stages in A and B share a histogram (the combined
	// distribution), which is what an operator comparing the two wants.
	if cfg.Obs != nil {
		t.SystemA.Instrument(cfg.Obs)
		defer t.SystemA.Instrument(nil)
		t.SystemB.Instrument(cfg.Obs)
		defer t.SystemB.Instrument(nil)
	}
	inner := t.Inner
	nSlots := 0
	if inner.PS != nil {
		nSlots = len(routingFor(inner.PS).slotPair)
	}
	start := time.Now()
	res := &SearchResult{Method: "gradient-based (relative " + cfg.Mode.String() + ")"}
	var mu sync.Mutex
	// Per-restart improvement logs, each written only by its own restart
	// and folded in deterministic order after the join.
	logs := make([]restartLog, cfg.Restarts)

	workers := cfg.Workers
	if workers <= 0 || workers > cfg.Restarts {
		workers = cfg.Restarts
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for restart := 0; restart < cfg.Restarts; restart++ {
		wg.Add(1)
		go func(restart int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := rng.New(cfg.Seed + uint64(restart)*0x9e3779b97f4a7c15)
			n := inner.InputDim
			x := make([]float64, n)
			for i := range x {
				x[i] = r.Float64() * inner.MaxDemand * 0.5
			}
			fLogits := make([]float64, nSlots)
			lambda := cfg.LambdaInit
			stepD := cfg.AlphaD * inner.MaxDemand
			demS, demE := inner.DemandStart, inner.DemandStart+inner.DemandLen
			bestLocal, stale := 0.0, 0
			// Per-restart scratch, reused across iterations.
			g := make([]float64, n)
			gD := make([]float64, demE-demS)
			gF := make([]float64, len(fLogits))
			var cMLU [1]float64
			for iter := 0; iter < cfg.Iters; iter++ {
				a := t.SystemA.EvalScalar(x)
				b := t.SystemB.EvalScalar(x)
				gA := t.SystemA.Grad(x)
				gB := t.SystemB.Grad(x)
				mu.Lock()
				res.GradEvals += 2
				res.Evals += 2
				mu.Unlock()
				// ∇ log(A/B).
				for i := range g {
					ga, gb := 0.0, 0.0
					if a > 1e-12 {
						ga = gA[i] / a
					}
					if b > 1e-12 {
						gb = gB[i] / b
					}
					g[i] = ga - gb
				}
				gN := normalizeInPlace(g)
				inner.constraintMLUBatch(x[demS:demE], fLogits, 1, gD, gF, cMLU[:], scalarSeed)
				dN := normalizeInPlace(gD)
				for i := demS; i < demE; i++ {
					gN[i] += lambda * dN[i-demS]
				}
				fN := normalizeInPlace(gF)
				for i := range fLogits {
					fLogits[i] += cfg.AlphaF * lambda * fN[i]
				}
				for i := range x {
					x[i] += stepD * gN[i]
					if x[i] < 0 {
						x[i] = 0
					}
					if x[i] > inner.MaxDemand {
						x[i] = inner.MaxDemand
					}
				}
				lambda -= cfg.AlphaL * (cMLU[0] - 1)

				if (iter+1)%cfg.EvalEvery == 0 || iter == cfg.Iters-1 {
					ratio, ra, rb := t.Ratio(x)
					if ratio > bestLocal && !math.IsInf(ratio, 0) {
						bestLocal = ratio
						stale = 0
						logs[restart].record(improvement{
							restart: restart, iter: iter, ratio: ratio, sys: ra, opt: rb,
							at: time.Since(start),
						}, x)
					} else {
						stale++
						if cfg.Patience > 0 && stale >= cfg.Patience {
							return
						}
					}
				}
			}
		}(restart)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.foldImprovements(logs, nil)
	if cfg.Obs != nil {
		cfg.Obs.Histogram("search.elapsed.ms").Observe(float64(res.Elapsed) / float64(time.Millisecond))
		res.Telemetry = cfg.Obs.Snapshot()
	}
	return res, nil
}
