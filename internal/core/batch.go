package core

import (
	"context"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Batched evaluation: a restart group of the gradient search runs its R
// search points in lock-step, represented as a row-major [R, n]
// linalg.Matrix whose row r is point r. Stages that implement the Batch* interfaces process the whole
// batch in one sweep (turning the DNN's work into matrix–matrix kernels);
// stages that don't are driven row by row, so a mixed pipeline still works.
//
// Contract: batched stages must compute each row EXACTLY as the scalar
// Forward/VJP would — same values bit for bit, independent of the batch
// size — so a restart's trajectory does not depend on its group. The
// blocked linalg kernels and the segment ops preserve this by construction.
//
// Ownership: the input matrix is owned by the caller and is read-only to the
// stage; the returned matrix is freshly allocated and owned by the caller.
// Rows of either may be retained only until the next call.

// BatchComponent is a Component that can evaluate a whole batch natively.
type BatchComponent interface {
	Component
	// BatchForward evaluates the stage on each row of xs, returning one
	// output row per input row.
	BatchForward(xs *linalg.Matrix) *linalg.Matrix
}

// BatchDifferentiable is a Differentiable stage with a native batched VJP:
// row r of the result is ybars.Row(r)ᵀ·J evaluated at xs.Row(r).
type BatchDifferentiable interface {
	Differentiable
	BatchComponent
	BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix
}

// BatchCapable reports whether every stage batches natively — the condition
// under which a search without an Executor runs all restarts as one group.
func (p *Pipeline) BatchCapable() bool {
	for _, s := range p.stages {
		if _, ok := s.(BatchDifferentiable); !ok {
			return false
		}
	}
	return true
}

// batchForwardStage evaluates one stage on a batch, natively when the stage
// supports it and row by row otherwise.
func batchForwardStage(s Component, xs *linalg.Matrix) *linalg.Matrix {
	if bc, ok := s.(BatchComponent); ok {
		return bc.BatchForward(xs)
	}
	var out *linalg.Matrix
	for r := 0; r < xs.Rows; r++ {
		y := s.Forward(xs.Row(r))
		if out == nil {
			out = linalg.NewMatrix(xs.Rows, len(y))
		}
		copy(out.Row(r), y)
	}
	return out
}

// BatchForward evaluates the whole system on every row of xs.
func (p *Pipeline) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	if xs.Rows == 0 {
		panic("core: BatchForward on empty batch")
	}
	cur := xs
	for i, s := range p.stages {
		if p.obs != nil {
			t := p.obs[i].fwd.StartTimer()
			cur = batchForwardStage(s, cur)
			t.Stop()
		} else {
			cur = batchForwardStage(s, cur)
		}
	}
	return cur
}

// BatchVJP computes the chain-rule VJP of every row in lock-step: it runs
// the batched forward sweep, then pulls the per-row cotangents back stage by
// stage. Row r of the result equals VJP(xs.Row(r), ybars.Row(r)) exactly.
func (p *Pipeline) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	g, _ := p.BatchVJPCtx(context.Background(), xs, ybars)
	return g
}

// BatchCtxDifferentiable is an optional extension of BatchDifferentiable for
// stages whose batched VJP is expensive enough to observe cancellation
// mid-computation (the sampling estimators). Implementations return ctx.Err()
// promptly after cancellation and behave exactly like BatchVJP otherwise.
type BatchCtxDifferentiable interface {
	BatchDifferentiable
	BatchVJPCtx(ctx context.Context, xs, ybars *linalg.Matrix) (*linalg.Matrix, error)
}

// BatchVJPCtx is BatchVJP under a caller-controlled context: ctx is checked
// between stages and long-running estimator stages abort promptly. A context
// that never fires leaves every row bitwise unchanged. The only error
// returned is ctx.Err(); structural problems still panic, to be contained by
// the search engine.
func (p *Pipeline) BatchVJPCtx(ctx context.Context, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
	if xs.Rows == 0 {
		panic("core: BatchVJP on empty batch")
	}
	if xs.Rows == 1 {
		// A one-row batch takes the scalar chain rule, whose stages may
		// spread a single row over workers (the sparse FD sweep stripes its
		// probes); by the batch contract the row is bitwise the same.
		g, err := p.VJPCtx(ctx, xs.Row(0), ybars.Row(0))
		if err != nil {
			return nil, err
		}
		return &linalg.Matrix{Rows: 1, Cols: len(g), Data: g}, nil
	}
	inputs := make([]*linalg.Matrix, len(p.stages))
	cur := xs
	for i, s := range p.stages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inputs[i] = cur
		if p.obs != nil {
			t := p.obs[i].fwd.StartTimer()
			cur = batchForwardStage(s, cur)
			t.Stop()
		} else {
			cur = batchForwardStage(s, cur)
		}
	}
	if ybars.Rows != cur.Rows || ybars.Cols != cur.Cols {
		panic(fmt.Sprintf("core: batch cotangent shape [%d,%d], output [%d,%d]",
			ybars.Rows, ybars.Cols, cur.Rows, cur.Cols))
	}
	cot := ybars
	for i := len(p.stages) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var t obs.Timer
		if p.obs != nil {
			t = p.obs[i].vjp.StartTimer()
		}
		switch d := p.stages[i].(type) {
		case BatchCtxDifferentiable:
			var err error
			cot, err = d.BatchVJPCtx(ctx, inputs[i], cot)
			if err != nil {
				t.Stop()
				return nil, err
			}
		case BatchDifferentiable:
			cot = d.BatchVJP(inputs[i], cot)
		case Differentiable:
			next := linalg.NewMatrix(xs.Rows, inputs[i].Cols)
			for r := 0; r < xs.Rows; r++ {
				copy(next.Row(r), d.VJP(inputs[i].Row(r), cot.Row(r)))
			}
			cot = next
		default:
			panic(fmt.Sprintf("core: stage %q is not differentiable; wrap it with WithFiniteDiff or WithSPSA", p.stages[i].Name()))
		}
		t.Stop()
	}
	return cot, nil
}

// BatchGrad returns the gradient of a scalar-output pipeline for every row.
func (p *Pipeline) BatchGrad(xs *linalg.Matrix) *linalg.Matrix {
	ones := linalg.NewMatrix(xs.Rows, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	return p.BatchVJP(xs, ones)
}
