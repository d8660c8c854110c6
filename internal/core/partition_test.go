package core

// PartitionedSearch is the §6 partitioned-analysis experiment. It lives in a
// test file because TestPartitionedSearch is its only runner.

import (
	"fmt"
	"time"

	"repro/internal/rng"
)

// PartitionConfig controls the partitioned analysis of §6 ("Partitioning
// the performance analysis"): instead of differentiating through the whole
// system at once, analyze it backwards stage by stage. Starting from the
// last component, find outputs of the preceding stage that drive the
// downstream sub-system into its adversarial space; then recurse toward the
// input.
type PartitionConfig struct {
	// StepsPerStage is the number of gradient steps per stage.
	StepsPerStage int
	// Step is the relative step size.
	Step float64
	// Seed drives initialization.
	Seed uint64
	// TrustRadius bounds how far an intermediate stage target may move from
	// its nominal forward value, as a multiple of the value's scale.
	TrustRadius float64
}

// DefaultPartitionConfig returns workable defaults.
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{StepsPerStage: 60, Step: 0.02, Seed: 1, TrustRadius: 3}
}

// StageReport describes one step of the backward analysis.
type StageReport struct {
	Stage string
	// TargetObjective is the downstream objective value reached when
	// optimizing this stage's INPUT against the sub-pipeline from here on.
	TargetObjective float64
}

// PartitionedSearch runs the backward stage-by-stage analysis:
//
//  1. For the sub-pipeline H_j..H_n (j = n..1), gradient-ascend the stage-j
//     input to maximize the final objective, starting from the forward
//     activations of a seed input and constrained to a trust region around
//     them (intermediate spaces have no natural box bounds).
//  2. The stage-1 result lives in the true input space; clamp it to the
//     input box and score it with the true performance ratio.
//
// Every stage is analyzed in isolation — the decomposition white-box tools
// cannot do because they must model everything jointly (§3.1).
func PartitionedSearch(target *AttackTarget, cfg PartitionConfig) (*SearchResult, []StageReport, error) {
	if err := target.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.StepsPerStage <= 0 {
		cfg.StepsPerStage = 60
	}
	if cfg.Step <= 0 {
		cfg.Step = 0.02
	}
	if cfg.TrustRadius <= 0 {
		cfg.TrustRadius = 3
	}
	start := time.Now()
	stages := target.Pipeline.Stages()
	n := len(stages)
	r := rng.New(cfg.Seed)

	// Seed input and nominal forward activations.
	x0 := make([]float64, target.InputDim)
	for i := range x0 {
		x0[i] = r.Float64() * target.MaxDemand * 0.5
	}
	activations := make([][]float64, n+1)
	activations[0] = x0
	for i, s := range stages {
		activations[i+1] = s.Forward(activations[i])
	}

	var reports []StageReport
	bestInput := append([]float64{}, x0...)
	// Backwards: stage index j from n-1 down to 0; optimize the input of
	// the sub-pipeline stages[j:].
	for j := n - 1; j >= 0; j-- {
		sub := NewPipeline(stages[j:]...)
		z := append([]float64{}, activations[j]...)
		// Trust region around the nominal activation (or the input box at
		// stage 0).
		lo := make([]float64, len(z))
		hi := make([]float64, len(z))
		for i := range z {
			if j == 0 {
				lo[i], hi[i] = 0, target.MaxDemand
			} else {
				scale := abs(activations[j][i])
				if scale < 1e-3 {
					scale = 1e-3
				}
				lo[i] = activations[j][i] - cfg.TrustRadius*scale
				hi[i] = activations[j][i] + cfg.TrustRadius*scale
			}
		}
		step := make([]float64, len(z))
		for i := range step {
			step[i] = cfg.Step * (hi[i] - lo[i])
		}
		for it := 0; it < cfg.StepsPerStage; it++ {
			g := sub.Grad(z)
			gN := normalizeInPlace(g)
			for i := range z {
				z[i] += step[i] * gN[i]
				if z[i] < lo[i] {
					z[i] = lo[i]
				}
				if z[i] > hi[i] {
					z[i] = hi[i]
				}
			}
		}
		obj := sub.EvalScalar(z)
		reports = append(reports, StageReport{Stage: stages[j].Name(), TargetObjective: obj})
		if j == 0 {
			bestInput = z
		} else {
			// Pull the nominal activation of stage j toward the adversarial
			// target so the next (upstream) stage chases it.
			activations[j] = z
		}
	}

	ratio, sys, opt, err := target.Ratio(bestInput)
	if err != nil {
		return nil, nil, err
	}
	res := &SearchResult{
		Method:     "partitioned backward analysis",
		BestRatio:  ratio,
		BestSysMLU: sys,
		BestOptMLU: opt,
		BestX:      bestInput,
		Found:      ratio > 1,
		Elapsed:    time.Since(start),
		TimeToBest: time.Since(start),
	}
	if len(reports) == 0 {
		return nil, nil, fmt.Errorf("core: empty pipeline in partitioned search")
	}
	return res, reports, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
