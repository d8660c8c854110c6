package dote

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/nn"
)

// This file adapts the DOTE pipeline to the analyzer's Component interface,
// realizing the decomposition of Figure 4: the end-to-end system is the
// composition
//
//	x = [history | demand]
//	H1 (dnn):            [history | demand] -> [logits | demand]
//	H2 (post-processor): [logits  | demand] -> [splits | demand]
//	H3 (routing):        [splits  | demand] -> [per-edge utilization]
//	H4 (mlu):            [utilization]      -> [MLU]
//
// For DOTE-Curr the input is just [demand]; H1 fans it into both roles, so
// the chain rule automatically accounts for the demand's influence through
// the DNN as well as through the routing.

// dnnStage is H1: it runs the DNN on the history part and passes the demand
// through.
type dnnStage struct{ m *Model }

// Name implements core.Component.
func (s *dnnStage) Name() string { return "dnn" }

// Forward implements core.Component.
func (s *dnnStage) Forward(x []float64) []float64 {
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

// VJP implements core.Differentiable via the tape.
func (s *dnnStage) VJP(x, ybar []float64) []float64 {
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
	if m.Cfg.Variant == Curr {
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

// postprocStage is H2: the per-demand softmax over the logits part.
type postprocStage struct{ m *Model }

// Name implements core.Component.
func (s *postprocStage) Name() string { return "post-processor" }

func (s *postprocStage) run(x []float64, ybar []float64) ([]float64, []float64) {
	m := s.m
	t := ad.GetTape()
	defer ad.PutTape(t)
	logits := t.Var(x[:m.TotalPaths()])
	splits := ad.SegmentSoftmax(logits, m.offsets, m.lens)
	out := make([]float64, len(x))
	copy(out, splits.Data())
	copy(out[m.TotalPaths():], x[m.TotalPaths():])
	if ybar == nil {
		return out, nil
	}
	ad.BackwardVJP(splits, ybar[:m.TotalPaths()])
	grad := make([]float64, len(x))
	copy(grad, logits.Grad())
	copy(grad[m.TotalPaths():], ybar[m.TotalPaths():])
	return out, grad
}

// Forward implements core.Component.
func (s *postprocStage) Forward(x []float64) []float64 {
	out, _ := s.run(x, nil)
	return out
}

// VJP implements core.Differentiable.
func (s *postprocStage) VJP(x, ybar []float64) []float64 {
	_, grad := s.run(x, ybar)
	return grad
}

// routingStage is H3: the bilinear routing of demands over splits.
type routingStage struct{ m *Model }

// Name implements core.Component.
func (s *routingStage) Name() string { return "routing" }

func (s *routingStage) run(x []float64, ybar []float64) ([]float64, []float64) {
	m := s.m
	t := ad.GetTape()
	defer ad.PutTape(t)
	splits := t.Var(x[:m.TotalPaths()])
	demand := t.Var(x[m.TotalPaths():])
	util := m.UtilizationValue(t, demand, splits)
	out := make([]float64, util.Len())
	copy(out, util.Data())
	if ybar == nil {
		return out, nil
	}
	ad.BackwardVJP(util, ybar)
	grad := make([]float64, len(x))
	copy(grad, splits.Grad())
	copy(grad[m.TotalPaths():], demand.Grad())
	return out, grad
}

// Forward implements core.Component.
func (s *routingStage) Forward(x []float64) []float64 {
	out, _ := s.run(x, nil)
	return out
}

// VJP implements core.Differentiable.
func (s *routingStage) VJP(x, ybar []float64) []float64 {
	_, grad := s.run(x, ybar)
	return grad
}

// mluStage is H4: the max reduction.
type mluStage struct{}

// Name implements core.Component.
func (mluStage) Name() string { return "mlu" }

// Forward implements core.Component.
func (mluStage) Forward(x []float64) []float64 {
	best := x[0]
	for _, v := range x[1:] {
		if v > best {
			best = v
		}
	}
	return []float64{best}
}

// VJP implements core.Differentiable: the subgradient flows to the first
// attaining edge.
func (mluStage) VJP(x, ybar []float64) []float64 {
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

// Pipeline returns the four-stage analyzer pipeline for this model. Every
// stage is Differentiable, so the analyzer gets exact chain-rule gradients.
func (m *Model) Pipeline() *core.Pipeline {
	return core.NewPipeline(
		&dnnStage{m},
		&postprocStage{m},
		&routingStage{m},
		mluStage{},
	)
}

// OpaqueRoutingPipeline returns the same pipeline but with the routing and
// MLU stages fused into a single *non-differentiable* component. This is the
// gray-box scenario of §3.2/§6: the analyzer must estimate that stage's
// gradient from samples (wrap via Grayboxed, WithFiniteDiff, or WithSPSA).
//
// The fused stage is backed by incremental evaluators (see sparse.go): its
// forwards are bitwise identical to the previous routing→mlu composition,
// and it advertises core.SparseProbeEvaluator so finite-difference wrappers
// take the per-coordinate fast path. Wrap it in core.DenseProbes to force
// full-vector probing.
func (m *Model) OpaqueRoutingPipeline() *core.Pipeline {
	return core.NewPipeline(
		&dnnStage{m},
		&postprocStage{m},
		newOpaqueRoutingStage(m),
	)
}

// OpaqueRoutingPipelineDense is OpaqueRoutingPipeline with the fused stage
// wrapped in core.DenseProbes: finite differences fall back to full-vector
// forwards. It is the reference side of the sparse-vs-dense equivalence
// tests and benchmarks.
func (m *Model) OpaqueRoutingPipelineDense() *core.Pipeline {
	return core.NewPipeline(
		&dnnStage{m},
		&postprocStage{m},
		core.DenseProbes(newOpaqueRoutingStage(m)),
	)
}
