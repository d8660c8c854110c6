package repro

// Guard for the telemetry layer's zero-cost-when-disabled contract: an
// uninstrumented pipeline (the default, and the state after
// Instrument(nil)) must run the gradient hot path with exactly the same
// number of allocations as a pipeline that never saw a registry. CI runs
// this as a separate non-gating step so a regression is loud without
// blocking unrelated work.

import (
	"testing"

	"repro/internal/dote"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	st := benchStates[dote.Curr]
	st.once.Do(func() {
		st.s, st.err = experiments.Prepare(experiments.QuickSetup(dote.Curr))
	})
	if st.err != nil {
		t.Fatal(st.err)
	}
	s := st.s
	x := make([]float64, s.Target.InputDim)
	for i := range x {
		x[i] = float64(i%7) / 7 * s.Target.MaxDemand
	}
	p := s.Target.Pipeline

	grad := func() { p.Grad(x) }
	grad() // warm the pools so both measurements see steady state

	base := testing.AllocsPerRun(200, grad)

	// Instrument and immediately disable: the pipeline must return to the
	// allocation-free fast path, not keep paying for dead handles.
	p.Instrument(obs.NewRegistry())
	p.Instrument(nil)
	disabled := testing.AllocsPerRun(200, grad)

	if disabled != base {
		t.Fatalf("disabled telemetry changed Grad allocations: %v allocs/op baseline, %v after Instrument(nil)", base, disabled)
	}
}

// TestSparseFDPathZeroAllocWhenDisabled extends the guard to the
// incremental-evaluation fast path: the gray-box FD gradient driven by
// sparse probes (no eval cache in play) must keep its uninstrumented
// allocs/op after an Instrument/Instrument(nil) round trip, and the sparse
// sweep itself must stay far below the dense path's 2n-forwards footprint.
func TestSparseFDPathZeroAllocWhenDisabled(t *testing.T) {
	st := benchStates[dote.Curr]
	st.once.Do(func() {
		st.s, st.err = experiments.Prepare(experiments.QuickSetup(dote.Curr))
	})
	if st.err != nil {
		t.Fatal(st.err)
	}
	s := st.s
	p := s.Model.OpaqueRoutingPipeline().Grayboxed(1e-4)
	x := make([]float64, s.Target.InputDim)
	for i := range x {
		x[i] = float64(i%7) / 7 * s.Target.MaxDemand
	}

	grad := func() { p.Grad(x) }
	grad() // warm the evaluator pools

	base := testing.AllocsPerRun(200, grad)

	p.Instrument(obs.NewRegistry())
	p.Instrument(nil)
	disabled := testing.AllocsPerRun(200, grad)

	if disabled != base {
		t.Fatalf("disabled telemetry changed sparse Grad allocations: %v allocs/op baseline, %v after Instrument(nil)", base, disabled)
	}
	// The sparse sweep allocates O(workers) scratch, not O(coordinates)
	// probe vectors: a generous fixed bound catches any per-probe
	// allocation sneaking back into the hot path.
	if base > 64 {
		t.Fatalf("sparse FD Grad allocates %v allocs/op; want <= 64 (per-probe allocations crept in)", base)
	}
}
