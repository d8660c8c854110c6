// Package robust implements the §6 extension "Improving robustness of
// learning-enabled systems": take the adversarial inputs the analyzer
// found, add them to the DNN's training data, retrain, and measure both the
// adversarial gap and the average-case performance — checking that
// hardening does not hurt the common case.
package robust

import (
	"fmt"

	"repro/internal/dote"
	"repro/internal/te"
	"repro/internal/traffic"
)

// Result reports performance before and after adversarial retraining.
type Result struct {
	// BeforeTest / AfterTest are the in-distribution test statistics; the
	// average case must not degrade materially.
	BeforeTest, AfterTest dote.EvalStats
	// BeforeAdv / AfterAdv are the worst ratios over the adversarial inputs.
	BeforeAdv, AfterAdv float64
}

// ExamplesFromInputs converts raw adversarial search-space inputs into
// supervised training examples for the given model variant.
func ExamplesFromInputs(m *dote.Model, inputs [][]float64) []traffic.Example {
	out := make([]traffic.Example, 0, len(inputs))
	for _, x := range inputs {
		hist, dem := m.SplitInput(x)
		h := append([]float64{}, hist...)
		d := make(te.TrafficMatrix, len(dem))
		copy(d, dem)
		out = append(out, traffic.Example{History: h, Next: d})
	}
	return out
}

// worstRatio evaluates the model on the adversarial inputs and returns the
// largest performance ratio.
func worstRatio(m *dote.Model, inputs [][]float64) (float64, error) {
	worst := 0.0
	for _, x := range inputs {
		ratio, _, _, err := m.PerformanceRatio(x)
		if err != nil {
			return 0, err
		}
		if ratio > worst {
			worst = ratio
		}
	}
	return worst, nil
}

// Harden retrains the model on its original training set augmented with the
// adversarial inputs (repeated `weight` times so that a handful of
// adversarial points is not drowned out), then reports before/after
// statistics on testEx and on the adversarial inputs themselves.
func Harden(m *dote.Model, trainEx, testEx []traffic.Example, advInputs [][]float64, weight int, opts dote.TrainOptions) (*Result, error) {
	if len(advInputs) == 0 {
		return nil, fmt.Errorf("robust: no adversarial inputs")
	}
	if weight < 1 {
		weight = 1
	}
	res := &Result{}
	var err error
	if res.BeforeTest, err = dote.Evaluate(m, testEx); err != nil {
		return nil, err
	}
	if res.BeforeAdv, err = worstRatio(m, advInputs); err != nil {
		return nil, err
	}
	augmented := append([]traffic.Example{}, trainEx...)
	advEx := ExamplesFromInputs(m, advInputs)
	for i := 0; i < weight; i++ {
		augmented = append(augmented, advEx...)
	}
	if _, err = dote.Train(m, augmented, opts); err != nil {
		return nil, err
	}
	if res.AfterTest, err = dote.Evaluate(m, testEx); err != nil {
		return nil, err
	}
	if res.AfterAdv, err = worstRatio(m, advInputs); err != nil {
		return nil, err
	}
	return res, nil
}
