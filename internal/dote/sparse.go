package dote

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/te"
)

// opaqueRoutingStage is the fused routing+MLU component of the gray-box
// scenario, backed by pooled te.IncrementalEvaluators. Input layout matches
// routingStage: [splits (totalPaths) | demand (pairs)], output is [MLU].
//
// Forward is a full recompute through the evaluator, bitwise identical to
// the tape-based routingStage+mluStage composition it replaces. The stage
// additionally advertises core.SparseProbeEvaluator, so the FD estimator's
// ±h sweeps cost one Rebase plus per-coordinate incremental probes instead
// of 2n full evaluations — probes are bitwise identical to dense forwards at
// the perturbed points, which keeps the sparse and dense search trajectories
// exactly equal.
type opaqueRoutingStage struct {
	m    *Model
	pool sync.Pool // of *te.IncrementalEvaluator
	reg  atomic.Pointer[obs.Registry]
}

func newOpaqueRoutingStage(m *Model) *opaqueRoutingStage {
	s := &opaqueRoutingStage{m: m}
	s.pool.New = func() any { return te.NewIncrementalEvaluator(m.PS) }
	return s
}

// Name implements core.Component; kept identical to the previous fused
// component so telemetry series and reports line up across versions.
func (s *opaqueRoutingStage) Name() string { return "routing+mlu (opaque)" }

// Instrument implements core.Instrumentable: pooled evaluators borrowed
// after this call route te.incr.* probe counters and latency
// histograms into reg (nil detaches).
func (s *opaqueRoutingStage) Instrument(reg *obs.Registry) { s.reg.Store(reg) }

func (s *opaqueRoutingStage) get() *te.IncrementalEvaluator {
	ev := s.pool.Get().(*te.IncrementalEvaluator)
	ev.Instrument(s.reg.Load())
	return ev
}

// Forward implements core.Component.
func (s *opaqueRoutingStage) Forward(x []float64) []float64 {
	total := s.m.totalPaths
	ev := s.get()
	ev.Rebase(te.TrafficMatrix(x[total:]), te.Splits(x[:total]))
	mlu, _ := ev.MLU()
	s.pool.Put(ev)
	return []float64{mlu}
}

// SparseProber implements core.SparseProbeEvaluator.
func (s *opaqueRoutingStage) SparseProber(x []float64) core.SparseProber {
	total := s.m.totalPaths
	ev := s.get()
	ev.Rebase(te.TrafficMatrix(x[total:]), te.Splits(x[:total]))
	return &opaqueProber{stage: s, ev: ev, total: total}
}

// opaqueProber answers (index, delta) probes against one rebased evaluator.
// Indices follow the stage's input layout: path slots first, then demands.
type opaqueProber struct {
	stage *opaqueRoutingStage
	ev    *te.IncrementalEvaluator
	total int
	out   [1]float64
}

// Probe implements core.SparseProber.
func (p *opaqueProber) Probe(index int, delta float64) []float64 {
	if index < p.total {
		p.out[0] = p.ev.ProbeSplit(index, delta)
	} else {
		p.out[0] = p.ev.ProbeDemand(index-p.total, delta)
	}
	return p.out[:]
}

// CertifiedSupport implements core.SupportCertifier: the coordinates whose
// ±delta probe could change the MLU are exactly those crossing the argmax
// link or a link whose utilization is within probe-reach of the max — the
// evaluator's per-coordinate certificate (see te.SplitProbeCanMoveMax). On
// bottleneck-structured operating points this is a few hundred of thousands
// of coordinates, and every omitted coordinate provably probes to a bitwise
// zero central difference, so a sweep over just this set reproduces the full
// FD row exactly.
func (p *opaqueProber) CertifiedSupport(delta float64) []int {
	sup := make([]int, 0, 256)
	for slot := 0; slot < p.total; slot++ {
		if p.ev.SplitProbeCanMoveMax(slot, delta) {
			sup = append(sup, slot)
		}
	}
	for pair := 0; pair < p.stage.m.PS.NumPairs(); pair++ {
		if p.ev.DemandProbeCanMoveMax(pair, delta) {
			sup = append(sup, p.total+pair)
		}
	}
	return sup
}

// Close implements core.SparseProber.
func (p *opaqueProber) Close() { p.stage.pool.Put(p.ev) }
