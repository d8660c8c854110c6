package core_test

// Scalar oracles of the four DOTE pipeline stages (dnn → post-processor →
// routing → mlu): each computes one row on its own tape through the model's
// exported value builders, independently of the stages' batch bodies.
// Chained by core.ScalarChain, they are the reference side of the
// batch-equivalence suite.

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/nn"
)

// oracleDNN is H1: the DNN on the history part, the demand passed through.
type oracleDNN struct{ m *dote.Model }

func (s oracleDNN) Name() string { return "dnn" }

func (s oracleDNN) Forward(x []float64) []float64 {
	history, demand := s.m.SplitInput(x)
	c := nn.GetCtx(false)
	defer nn.PutCtx(c)
	h := c.T.ConstMat(history, 1, len(history))
	logits := s.m.LogitsValue(c, h)
	out := make([]float64, s.m.TotalPaths()+s.m.NumPairs())
	copy(out, logits.Data())
	copy(out[s.m.TotalPaths():], demand)
	return out
}

func (s oracleDNN) VJP(x, ybar []float64) []float64 {
	m := s.m
	history, demand := m.SplitInput(x)
	c := nn.GetCtx(false)
	defer nn.PutCtx(c)
	h := c.T.VarMat(history, 1, len(history))
	logits := m.LogitsValue(c, h)
	ad.BackwardVJP(logits, ybar[:m.TotalPaths()])
	hg := h.Grad()

	grad := make([]float64, len(x))
	dbar := ybar[m.TotalPaths():]
	if m.Cfg.Variant == dote.Curr {
		// The single input vector feeds both the DNN and the passthrough.
		for i := range grad {
			grad[i] = hg[i] + dbar[i]
		}
		return grad
	}
	copy(grad, hg)
	for i := range demand {
		grad[m.HistoryDim()+i] = dbar[i]
	}
	return grad
}

// oraclePost is H2: the per-demand softmax over the logits part.
type oraclePost struct{ m *dote.Model }

func (s oraclePost) Name() string { return "post-processor" }

func (s oraclePost) run(x []float64, ybar []float64) ([]float64, []float64) {
	T := s.m.TotalPaths()
	t := ad.GetTape()
	defer ad.PutTape(t)
	logits := t.Var(x[:T])
	splits := s.m.SplitsValue(logits)
	out := make([]float64, len(x))
	copy(out, splits.Data())
	copy(out[T:], x[T:])
	if ybar == nil {
		return out, nil
	}
	ad.BackwardVJP(splits, ybar[:T])
	grad := make([]float64, len(x))
	copy(grad, logits.Grad())
	copy(grad[T:], ybar[T:])
	return out, grad
}

func (s oraclePost) Forward(x []float64) []float64 {
	out, _ := s.run(x, nil)
	return out
}

func (s oraclePost) VJP(x, ybar []float64) []float64 {
	_, grad := s.run(x, ybar)
	return grad
}

// oracleRouting is H3: the bilinear routing of demands over splits.
type oracleRouting struct{ m *dote.Model }

func (s oracleRouting) Name() string { return "routing" }

func (s oracleRouting) run(x []float64, ybar []float64) ([]float64, []float64) {
	T := s.m.TotalPaths()
	t := ad.GetTape()
	defer ad.PutTape(t)
	splits := t.Var(x[:T])
	demand := t.Var(x[T:])
	util := s.m.UtilizationValue(t, demand, splits)
	out := make([]float64, util.Len())
	copy(out, util.Data())
	if ybar == nil {
		return out, nil
	}
	ad.BackwardVJP(util, ybar)
	grad := make([]float64, len(x))
	copy(grad, splits.Grad())
	copy(grad[T:], demand.Grad())
	return out, grad
}

func (s oracleRouting) Forward(x []float64) []float64 {
	out, _ := s.run(x, nil)
	return out
}

func (s oracleRouting) VJP(x, ybar []float64) []float64 {
	_, grad := s.run(x, ybar)
	return grad
}

// oracleMLU is H4: the max reduction, its subgradient on the first
// attaining edge.
type oracleMLU struct{}

func (oracleMLU) Name() string { return "mlu" }

func (oracleMLU) Forward(x []float64) []float64 {
	best := x[0]
	for _, v := range x[1:] {
		if v > best {
			best = v
		}
	}
	return []float64{best}
}

func (oracleMLU) VJP(x, ybar []float64) []float64 {
	arg, best := 0, x[0]
	for i, v := range x {
		if v > best {
			best, arg = v, i
		}
	}
	grad := make([]float64, len(x))
	grad[arg] = ybar[0]
	return grad
}

// oraclePipeline is the scalar oracle of m.Pipeline().
func oraclePipeline(m *dote.Model) core.ScalarChain {
	return core.ScalarChain{oracleDNN{m}, oraclePost{m}, oracleRouting{m}, oracleMLU{}}
}

// oracleOpaque is the scalar oracle of m.OpaqueRoutingPipeline() with the
// fused routing+MLU stage wrapped by estimator (a scalar FD or SPSA oracle).
func oracleOpaque(m *dote.Model, estimator func(core.Component) core.Component) core.ScalarChain {
	fused := m.OpaqueRoutingPipeline().Stages()[2]
	return core.ScalarChain{oracleDNN{m}, oraclePost{m}, estimator(fused)}
}
