package dote

import "repro/internal/core"

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

// Forward implements core.Component as a one-row batch.
func (s *dnnStage) Forward(x []float64) []float64 {
	return s.BatchForward(core.RowBatch(x)).Row(0)
}

// VJP implements core.Differentiable as a one-row batch.
func (s *dnnStage) VJP(x, ybar []float64) []float64 {
	return s.BatchVJP(core.RowBatch(x), core.RowBatch(ybar)).Row(0)
}

// postprocStage is H2: the per-demand softmax over the logits part.
type postprocStage struct{ m *Model }

// Name implements core.Component.
func (s *postprocStage) Name() string { return "post-processor" }

// Forward implements core.Component as a one-row batch.
func (s *postprocStage) Forward(x []float64) []float64 {
	return s.BatchForward(core.RowBatch(x)).Row(0)
}

// VJP implements core.Differentiable as a one-row batch.
func (s *postprocStage) VJP(x, ybar []float64) []float64 {
	return s.BatchVJP(core.RowBatch(x), core.RowBatch(ybar)).Row(0)
}

// routingStage is H3: the bilinear routing of demands over splits.
type routingStage struct{ m *Model }

// Name implements core.Component.
func (s *routingStage) Name() string { return "routing" }

// Forward implements core.Component as a one-row batch.
func (s *routingStage) Forward(x []float64) []float64 {
	return s.BatchForward(core.RowBatch(x)).Row(0)
}

// VJP implements core.Differentiable as a one-row batch.
func (s *routingStage) VJP(x, ybar []float64) []float64 {
	return s.BatchVJP(core.RowBatch(x), core.RowBatch(ybar)).Row(0)
}

// mluStage is H4: the max reduction.
type mluStage struct{}

// Name implements core.Component.
func (mluStage) Name() string { return "mlu" }

// Forward implements core.Component as a one-row batch.
func (s mluStage) Forward(x []float64) []float64 {
	return s.BatchForward(core.RowBatch(x)).Row(0)
}

// VJP implements core.Differentiable as a one-row batch.
func (s mluStage) VJP(x, ybar []float64) []float64 {
	return s.BatchVJP(core.RowBatch(x), core.RowBatch(ybar)).Row(0)
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
