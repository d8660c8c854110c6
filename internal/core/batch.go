package core

import (
	"context"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Batched evaluation is the analyzer's one sweep: a restart group of the
// gradient search runs its R search points in lock-step, represented as a
// row-major [R, n] linalg.Matrix whose row r is point r, and every scalar
// call (Pipeline.Forward, VJP, Grad and their ctx forms) is a one-row batch
// over the caller's slice (RowBatch). Stages that implement the Batch*
// interfaces process the whole batch in one sweep (turning the DNN's work
// into matrix–matrix kernels); stages that don't are driven row by row, so a
// mixed pipeline still works.
//
// Contract: batched stages must compute each row EXACTLY as a one-row batch
// of that row would — same values bit for bit, independent of the batch
// size — so a restart's trajectory does not depend on its group. The
// blocked linalg kernels and the segment ops preserve this by construction;
// the equivalence tests pin it against scalar oracles kept in core's test
// files.
//
// Ownership: the input matrix is owned by the caller and is read-only to the
// stage; the returned matrix is freshly allocated and owned by the caller.
// Rows of either may be retained only until the next call.

// RowBatch is the one-row batch over x: a view of the caller's slice, not a
// copy, so it is read-only like every batch input.
func RowBatch(x []float64) *linalg.Matrix {
	return &linalg.Matrix{Rows: 1, Cols: len(x), Data: x}
}

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
func batchForwardStage(s Component, xs *linalg.Matrix) linalg.Matrix {
	if bc, ok := s.(BatchComponent); ok {
		return *bc.BatchForward(xs)
	}
	out := rowsFrom(s.Forward(xs.Row(0)), xs.Rows)
	for r := 1; r < xs.Rows; r++ {
		copy(out.Row(r), s.Forward(xs.Row(r)))
	}
	return out
}

// rowsFrom starts the [rows, len(y)] result of a stage driven row by row
// from its first row y: a one-row batch keeps the stage's own slice, as a
// scalar caller would, and a taller one gets a fresh matrix whose further
// rows the caller fills.
func rowsFrom(y []float64, rows int) linalg.Matrix {
	if rows == 1 {
		return linalg.Matrix{Rows: 1, Cols: len(y), Data: y}
	}
	out := linalg.NewMatrix(rows, len(y))
	copy(out.Data, y)
	return *out
}

// sweep runs the forward pass: m[0] is the input batch, and stage i's
// output lands in m[i+1]. It stops with ctx.Err() between stages.
func (p *Pipeline) sweep(ctx context.Context, m []linalg.Matrix) error {
	if m[0].Rows == 0 {
		panic("core: pipeline sweep on empty batch")
	}
	for i, s := range p.stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		var t obs.Timer
		if p.obs != nil {
			t = p.obs[i].fwd.StartTimer()
		}
		m[i+1] = batchForwardStage(s, &m[i])
		t.Stop()
	}
	return nil
}

// BatchForward evaluates the whole system on every row of xs.
func (p *Pipeline) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	n := len(p.stages)
	m := make([]linalg.Matrix, n+1)
	m[0] = *xs
	_ = p.sweep(context.Background(), m)
	clear(m[:n]) // the result must not keep the intermediate batches alive
	return &m[n]
}

// BatchVJP computes the chain-rule VJP of every row in lock-step (see
// BatchVJPCtx). Row r of the result equals VJP(xs.Row(r), ybars.Row(r))
// exactly.
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

// BatchVJPCtx is the analyzer's chain rule (Figure 4): it runs the batched
// forward sweep, keeping each stage's input batch, then pulls the per-row
// cotangents back stage by stage. Stages without a batched VJP are pulled
// back row by row. Every stage must be Differentiable — wrap opaque stages
// with WithFiniteDiff or WithSPSA first (see Grayboxed).
//
// ctx is checked between stages and BatchCtxDifferentiable stages (the
// sampling estimators) observe it mid-sweep. A context that never fires
// leaves every row bitwise unchanged. The only error returned is ctx.Err();
// structural problems (shape mismatches, non-differentiable stages) still
// panic, to be contained by the search engine's recover() boundary.
func (p *Pipeline) BatchVJPCtx(ctx context.Context, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
	// m[i] is stage i's input batch and m[n] the output. On the way back
	// m[i+1] holds the cotangent of stage i's output and m[i] is replaced by
	// that of its input, so the headers of the whole sweep share one slice.
	n := len(p.stages)
	m := make([]linalg.Matrix, n+1)
	m[0] = *xs
	if err := p.sweep(ctx, m); err != nil {
		return nil, err
	}
	if ybars.Rows != m[n].Rows || ybars.Cols != m[n].Cols {
		panic(fmt.Sprintf("core: batch cotangent shape [%d,%d], output [%d,%d]",
			ybars.Rows, ybars.Cols, m[n].Rows, m[n].Cols))
	}
	m[n] = *ybars
	for i := n - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var t obs.Timer
		if p.obs != nil {
			t = p.obs[i].vjp.StartTimer()
		}
		in, cot := &m[i], &m[i+1]
		switch d := p.stages[i].(type) {
		case BatchCtxDifferentiable:
			g, err := d.BatchVJPCtx(ctx, in, cot)
			if err != nil {
				t.Stop()
				return nil, err
			}
			m[i] = *g
		case BatchDifferentiable:
			m[i] = *d.BatchVJP(in, cot)
		case Differentiable:
			g := rowsFrom(d.VJP(in.Row(0), cot.Row(0)), in.Rows)
			for r := 1; r < in.Rows; r++ {
				copy(g.Row(r), d.VJP(in.Row(r), cot.Row(r)))
			}
			m[i] = g
		default:
			panic(fmt.Sprintf("core: stage %q is not differentiable; wrap it with WithFiniteDiff or WithSPSA", p.stages[i].Name()))
		}
		t.Stop()
	}
	clear(m[1:]) // the result must not keep the intermediate batches alive
	return &m[0], nil
}

// BatchGrad returns the gradient of a scalar-output pipeline for every row.
func (p *Pipeline) BatchGrad(xs *linalg.Matrix) *linalg.Matrix {
	ones := linalg.NewMatrix(xs.Rows, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	return p.BatchVJP(xs, ones)
}
