package dote

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/nn"
)

// The full exact-gradient pipeline is batch-capable, and its three
// tape-backed stages record their forward pass once per chain-rule call.
var (
	_ core.BatchRecorder       = (*dnnStage)(nil)
	_ core.BatchRecorder       = (*postprocStage)(nil)
	_ core.BatchRecorder       = (*routingStage)(nil)
	_ core.BatchDifferentiable = mluStage{}
)

// Batched implementations of the four pipeline stages (core.BatchComponent /
// core.BatchDifferentiable), the only bodies the stages have: a restart
// group hands each stage an [R, n] matrix whose rows are the active
// restarts, a scalar Forward/VJP hands it a one-row batch, and the stage
// processes all rows on ONE tape — the DNN sees a [R, K·P] input so its
// dense layers become matrix–matrix kernels, and the segment/routing ops use
// row-shifted segment layouts.
//
// Each tape-backed stage has one body, record: it copies the batch onto a
// pooled tape, records the forward pass and returns the output batch with
// the tape. BatchForward is a record released at once; BatchRecord
// (core.BatchRecorder) hands the chain rule the output with a pull-back that
// runs backward on the same tape and then releases it; BatchVJP is a record
// followed by its pull-back. A pull-back runs at most once.
//
// Every stage computes each row exactly as a one-row batch of it would
// (same kernels, same per-row accumulation order), so a batched sweep is
// bitwise identical to R one-row sweeps — the property the equivalence
// tests in core pin down against scalar oracles of these stages.

// record runs the DNN on the history part of every row. The history block
// is a differentiable leaf h and the weights are bound by reference (an
// inference ctx), so the same record serves a forward and a pull-back.
func (s *dnnStage) record(xs *linalg.Matrix) (out *linalg.Matrix, c *nn.Ctx, h, logits ad.Value) {
	m := s.m
	R := xs.Rows
	hd := m.HistoryDim()
	T, P := m.TotalPaths(), m.NumPairs()
	c = nn.GetCtx(false)

	// Gather the history parts into one contiguous [R, hd] block. For Curr
	// the history IS the demand, so the whole row is gathered.
	hb := linalg.GetVec(R * hd)
	for r := 0; r < R; r++ {
		copy(hb[r*hd:(r+1)*hd], xs.Row(r)[:hd])
	}
	h = c.T.VarMat(hb, R, hd)
	linalg.PutVec(hb) // VarMat copies
	logits = m.LogitsValue(c, h)
	ld := logits.Data()

	out = linalg.NewMatrix(R, T+P)
	for r := 0; r < R; r++ {
		row := out.Row(r)
		copy(row[:T], ld[r*T:(r+1)*T])
		copy(row[T:], xs.Row(r)[xs.Cols-P:])
	}
	return out, c, h, logits
}

// BatchForward implements core.BatchComponent.
func (s *dnnStage) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	out, c, _, _ := s.record(xs)
	nn.PutCtx(c)
	return out
}

// BatchRecord implements core.BatchRecorder.
func (s *dnnStage) BatchRecord(xs *linalg.Matrix) (*linalg.Matrix, func(ybars *linalg.Matrix) *linalg.Matrix) {
	out, c, h, logits := s.record(xs)
	m := s.m
	R, cols := xs.Rows, xs.Cols
	return out, func(ybars *linalg.Matrix) *linalg.Matrix {
		if c == nil {
			panic("dote: dnn record pulled back twice")
		}
		hd, T := m.HistoryDim(), m.TotalPaths()
		cot := linalg.GetVec(R * T)
		for r := 0; r < R; r++ {
			copy(cot[r*T:(r+1)*T], ybars.Row(r)[:T])
		}
		ad.BackwardVJP(logits, cot)
		linalg.PutVec(cot) // BackwardVJP copies the seed into the tape
		hg := h.Grad()

		grad := linalg.NewMatrix(R, cols)
		for r := 0; r < R; r++ {
			grow := grad.Row(r)
			dbar := ybars.Row(r)[T:]
			hgr := hg[r*hd : (r+1)*hd]
			if m.Cfg.Variant == Curr {
				for i := range grow {
					grow[i] = hgr[i] + dbar[i]
				}
			} else {
				copy(grow[:hd], hgr)
				copy(grow[hd:], dbar)
			}
		}
		nn.PutCtx(c)
		c = nil
		return grad
	}
}

// BatchVJP implements core.BatchDifferentiable.
func (s *dnnStage) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	_, pull := s.BatchRecord(xs)
	return pull(ybars)
}

// record runs the per-demand softmax over the logits part of every row.
func (s *postprocStage) record(xs *linalg.Matrix) (out *linalg.Matrix, t *ad.Tape, logits, splits ad.Value) {
	m := s.m
	R := xs.Rows
	T := m.TotalPaths()
	t = ad.GetTape()

	lg := linalg.GetVec(R * T)
	for r := 0; r < R; r++ {
		copy(lg[r*T:(r+1)*T], xs.Row(r)[:T])
	}
	logits = t.Var(lg)
	linalg.PutVec(lg)
	segs := m.batchSegments(R)
	splits = ad.SegmentSoftmax(logits, segs.offsets, segs.lens)
	sd := splits.Data()

	out = linalg.NewMatrix(R, xs.Cols)
	for r := 0; r < R; r++ {
		row := out.Row(r)
		copy(row[:T], sd[r*T:(r+1)*T])
		copy(row[T:], xs.Row(r)[T:])
	}
	return out, t, logits, splits
}

// BatchForward implements core.BatchComponent.
func (s *postprocStage) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	out, t, _, _ := s.record(xs)
	ad.PutTape(t)
	return out
}

// BatchRecord implements core.BatchRecorder.
func (s *postprocStage) BatchRecord(xs *linalg.Matrix) (*linalg.Matrix, func(ybars *linalg.Matrix) *linalg.Matrix) {
	out, t, logits, splits := s.record(xs)
	R, cols, T := xs.Rows, xs.Cols, s.m.TotalPaths()
	return out, func(ybars *linalg.Matrix) *linalg.Matrix {
		if t == nil {
			panic("dote: post-processor record pulled back twice")
		}
		cot := linalg.GetVec(R * T)
		for r := 0; r < R; r++ {
			copy(cot[r*T:(r+1)*T], ybars.Row(r)[:T])
		}
		ad.BackwardVJP(splits, cot)
		linalg.PutVec(cot)
		lgGrad := logits.Grad()

		grad := linalg.NewMatrix(R, cols)
		for r := 0; r < R; r++ {
			grow := grad.Row(r)
			copy(grow[:T], lgGrad[r*T:(r+1)*T])
			copy(grow[T:], ybars.Row(r)[T:])
		}
		ad.PutTape(t)
		t = nil
		return grad
	}
}

// BatchVJP implements core.BatchDifferentiable.
func (s *postprocStage) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	_, pull := s.BatchRecord(xs)
	return pull(ybars)
}

// record routes every row's demand over its splits.
func (s *routingStage) record(xs *linalg.Matrix) (out *linalg.Matrix, t *ad.Tape, splits, demand, util ad.Value) {
	m := s.m
	R := xs.Rows
	T, P, E := m.TotalPaths(), m.NumPairs(), len(m.caps)
	t = ad.GetTape()

	sb := linalg.GetVec(R * T)
	db := linalg.GetVec(R * P)
	for r := 0; r < R; r++ {
		row := xs.Row(r)
		copy(sb[r*T:(r+1)*T], row[:T])
		copy(db[r*P:(r+1)*P], row[T:])
	}
	splits = t.Var(sb)
	demand = t.Var(db)
	linalg.PutVec(sb)
	linalg.PutVec(db)
	// The row-generalized utilization kernels infer R from the output size.
	util = ad.Custom(t, []ad.Value{demand, splits}, R*E, 1, m.utilFwd, m.utilBwd)

	out = linalg.NewMatrix(R, E)
	copy(out.Data, util.Data())
	return out, t, splits, demand, util
}

// BatchForward implements core.BatchComponent.
func (s *routingStage) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	out, t, _, _, _ := s.record(xs)
	ad.PutTape(t)
	return out
}

// BatchRecord implements core.BatchRecorder.
func (s *routingStage) BatchRecord(xs *linalg.Matrix) (*linalg.Matrix, func(ybars *linalg.Matrix) *linalg.Matrix) {
	out, t, splits, demand, util := s.record(xs)
	R, cols := xs.Rows, xs.Cols
	T, P := s.m.TotalPaths(), s.m.NumPairs()
	return out, func(ybars *linalg.Matrix) *linalg.Matrix {
		if t == nil {
			panic("dote: routing record pulled back twice")
		}
		ad.BackwardVJP(util, ybars.Data)
		sg, dg := splits.Grad(), demand.Grad()
		grad := linalg.NewMatrix(R, cols)
		for r := 0; r < R; r++ {
			grow := grad.Row(r)
			copy(grow[:T], sg[r*T:(r+1)*T])
			copy(grow[T:], dg[r*P:(r+1)*P])
		}
		ad.PutTape(t)
		t = nil
		return grad
	}
}

// BatchVJP implements core.BatchDifferentiable.
func (s *routingStage) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	_, pull := s.BatchRecord(xs)
	return pull(ybars)
}

// BatchForward implements core.BatchComponent: per-row max.
func (mluStage) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(xs.Rows, 1)
	for r := 0; r < xs.Rows; r++ {
		row := xs.Row(r)
		best := row[0]
		for _, v := range row[1:] {
			if v > best {
				best = v
			}
		}
		out.Data[r] = best
	}
	return out
}

// BatchVJP implements core.BatchDifferentiable: each row's subgradient flows
// to its first attaining edge.
func (mluStage) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	grad := linalg.NewMatrix(xs.Rows, xs.Cols)
	for r := 0; r < xs.Rows; r++ {
		row := xs.Row(r)
		arg, best := 0, row[0]
		for i, v := range row {
			if v > best {
				best, arg = v, i
			}
		}
		grad.Row(r)[arg] = ybars.Data[r]
	}
	return grad
}
