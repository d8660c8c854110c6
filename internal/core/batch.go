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
// mixed pipeline still works. Inside the chain rule every stage runs
// forward once: a BatchRecorder records its own pass, and one core adapter
// (recordStage, pullBack) gives every other stage the same shape.
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

// BatchRecorder is a BatchDifferentiable stage that records its forward
// pass once and pulls cotangents back through that record, so the chain
// rule does not run its forward twice. BatchRecord returns the stage's
// output on xs, bitwise equal to BatchForward(xs), and a pull-back whose
// result is bitwise equal to BatchVJP(xs, ybars). The pull-back runs at
// most once and releases the record; a record that is never pulled back
// (the ctx fired, a later stage panicked, the cotangent had the wrong
// shape) is dropped for the GC, never released. A record copies what it
// needs from xs and does not keep it.
type BatchRecorder interface {
	BatchDifferentiable
	BatchRecord(xs *linalg.Matrix) (ys *linalg.Matrix, pull func(ybars *linalg.Matrix) *linalg.Matrix)
}

// pullFunc is a BatchRecorder's pull-back; nil in a sweep slot means the
// stage is pulled back through its VJP at the input batch the slot keeps.
type pullFunc func(ybars *linalg.Matrix) *linalg.Matrix

// recordStage runs stage s forward on xs once and returns its output with
// the pull-back of that record (nil for a stage that is not a recorder).
func recordStage(s Component, xs *linalg.Matrix) (linalg.Matrix, pullFunc) {
	if r, ok := s.(BatchRecorder); ok {
		ys, pb := r.BatchRecord(xs)
		return *ys, pb
	}
	return batchForwardStage(s, xs), nil
}

// pullBack maps the cotangent batch of stage s's output to that of its input
// xs: through the stage's record when it has one, else through its VJP.
// Together with recordStage it is the one adapter between the chain rule
// and the stage kinds. Stages without a batched VJP are pulled back row by
// row.
func pullBack(ctx context.Context, s Component, pb pullFunc, xs, ybars *linalg.Matrix) (linalg.Matrix, error) {
	if pb != nil {
		return *pb(ybars), nil
	}
	switch d := s.(type) {
	case BatchCtxDifferentiable:
		g, err := d.BatchVJPCtx(ctx, xs, ybars)
		if err != nil {
			return linalg.Matrix{}, err
		}
		return *g, nil
	case BatchDifferentiable:
		return *d.BatchVJP(xs, ybars), nil
	case Differentiable:
		g := rowsFrom(d.VJP(xs.Row(0), ybars.Row(0)), xs.Rows)
		for i := 1; i < xs.Rows; i++ {
			copy(g.Row(i), d.VJP(xs.Row(i), ybars.Row(i)))
		}
		return g, nil
	default:
		panic(fmt.Sprintf("core: stage %q is not differentiable; wrap it with WithFiniteDiff or WithSPSA", s.Name()))
	}
}

// slot i of a sweep holds stage i's input batch and, inside the chain rule,
// the pull-back of its record; slot n holds the pipeline's output.
type slot struct {
	x    linalg.Matrix
	pull pullFunc
}

// sweep runs the forward pass: sl[0].x is the input batch, and stage i's
// output lands in sl[i+1].x. With rec set (the chain rule) each stage is
// recorded once into sl[i].pull. It stops with ctx.Err() between stages.
func (p *Pipeline) sweep(ctx context.Context, sl []slot, rec bool) error {
	if sl[0].x.Rows == 0 {
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
		if rec {
			sl[i+1].x, sl[i].pull = recordStage(s, &sl[i].x)
		} else {
			sl[i+1].x = batchForwardStage(s, &sl[i].x)
		}
		t.Stop()
	}
	return nil
}

// BatchForward evaluates the whole system on every row of xs.
func (p *Pipeline) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	n := len(p.stages)
	sl := make([]slot, n+1)
	sl[0].x = *xs
	_ = p.sweep(context.Background(), sl, false)
	clear(sl[:n]) // the result must not keep the intermediate batches alive
	return &sl[n].x
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
// forward sweep once, recording every stage (recordStage), then pulls the
// per-row cotangents back through the records stage by stage (pullBack). Every stage
// must be Differentiable — wrap opaque stages with WithFiniteDiff or
// WithSPSA first (see Grayboxed).
//
// ctx is checked between stages and BatchCtxDifferentiable stages (the
// sampling estimators) observe it mid-sweep. A context that never fires
// leaves every row bitwise unchanged. The only error returned is ctx.Err();
// structural problems (shape mismatches, non-differentiable stages) still
// panic, to be contained by the search engine's recover() boundary. Records
// left unpulled by an early return or a panic are dropped.
func (p *Pipeline) BatchVJPCtx(ctx context.Context, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
	// sl[i].x is stage i's input batch and sl[n].x the output. On the way
	// back sl[i+1].x holds the cotangent of stage i's output and sl[i].x is
	// replaced by that of its input, so the whole sweep shares one slice.
	n := len(p.stages)
	sl := make([]slot, n+1)
	sl[0].x = *xs
	if err := p.sweep(ctx, sl, true); err != nil {
		return nil, err
	}
	if out := &sl[n].x; ybars.Rows != out.Rows || ybars.Cols != out.Cols {
		panic(fmt.Sprintf("core: batch cotangent shape [%d,%d], output [%d,%d]",
			ybars.Rows, ybars.Cols, out.Rows, out.Cols))
	}
	sl[n].x = *ybars
	for i := n - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var t obs.Timer
		if p.obs != nil {
			t = p.obs[i].vjp.StartTimer()
		}
		g, err := pullBack(ctx, p.stages[i], sl[i].pull, &sl[i].x, &sl[i+1].x)
		t.Stop()
		if err != nil {
			return nil, err
		}
		sl[i].x = g
	}
	clear(sl[1:]) // the result must not keep the intermediate batches alive
	sl[0].pull = nil
	return &sl[0].x, nil
}

// BatchGrad returns the gradient of a scalar-output pipeline for every row.
func (p *Pipeline) BatchGrad(xs *linalg.Matrix) *linalg.Matrix {
	ones := linalg.NewMatrix(xs.Rows, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	return p.BatchVJP(xs, ones)
}
