package core_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// trapStage wraps a batch-differentiable stage. It is not a BatchRecorder,
// so the chain rule drives it through the core adapter, while the stages
// before it record themselves. While armed, the trap fires once: its
// forward fires on the armed call to BatchForward with more than one row
// (a search scores its points one row at a time, while its chain rule
// sweeps the whole group), its pull-back on the armed call to BatchVJP.
type trapStage struct {
	core.BatchDifferentiable
	fwdCalls, vjpCalls atomic.Int64
	fwdAt, vjpAt       int64 // 1-based call to fire on; 0 never fires
	fire               func()
}

func (s *trapStage) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	if xs.Rows > 1 && s.fwdCalls.Add(1) == s.fwdAt {
		s.fire()
	}
	return s.BatchDifferentiable.BatchForward(xs)
}

func (s *trapStage) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	if s.vjpCalls.Add(1) == s.vjpAt {
		s.fire()
	}
	return s.BatchDifferentiable.BatchVJP(xs, ybars)
}

// trapPipeline is the white-box pipeline with stage i wrapped in trap.
func trapPipeline(p *core.Pipeline, i int, trap *trapStage) *core.Pipeline {
	st := append([]core.Component(nil), p.Stages()...)
	trap.BatchDifferentiable = st[i].(core.BatchDifferentiable)
	st[i] = trap
	return core.NewPipeline(st...)
}

// TestBatchVJPCtxCancelDropsRecords: a ctx cancelled after the DNN and the
// post-processor have recorded their forward passes (in a later stage's
// forward, or in a later stage's pull-back) makes BatchVJPCtx return
// ctx.Err(); the unpulled records are dropped, and every later call is
// bitwise equal to a call on a pipeline that never saw a cancellation.
func TestBatchVJPCtxCancelDropsRecords(t *testing.T) {
	m := trainedTriangleModel(t)
	xs := randomBatch(rng.New(41), 3, m.InputDim(), m.PS.Graph.AvgLinkCapacity())
	ones := linalg.NewMatrix(xs.Rows, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	want := m.Pipeline().BatchVJP(xs, ones)

	for _, tc := range []struct {
		name  string
		stage int  // the trapped stage: routing (2) or mlu (3)
		inVJP bool // fire in the pull-back rather than the forward
	}{
		{"routing-forward", 2, false},
		{"mlu-forward", 3, false},
		{"mlu-pullback", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cancel context.CancelFunc
			trap := &trapStage{fire: func() { cancel() }}
			if tc.inVJP {
				trap.vjpAt = 1
			} else {
				trap.fwdAt = 1
			}
			p := trapPipeline(m.Pipeline(), tc.stage, trap)
			for round := 0; round < 3; round++ {
				var ctx context.Context
				ctx, cancel = context.WithCancel(context.Background())
				g, err := p.BatchVJPCtx(ctx, xs, ones)
				if round == 0 {
					if !errors.Is(err, context.Canceled) || g != nil {
						t.Fatalf("cancelled call returned (%v, %v), want (nil, context.Canceled)", g, err)
					}
				} else {
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					sameBits(t, "gradient after a cancelled call", want.Data, g.Data)
				}
				cancel()
				runtime.GC() // let the pools drop what they hold
			}
		})
	}
}

// TestFaultLaterStagePanicDropsRecords: a later stage that panics inside a
// search's chain rule, after the stages before it have recorded, retires
// the whole group at the recover() boundary; the records are dropped, and
// the next search on the same pipeline is bitwise equal to a search on a
// pipeline that never panicked.
func TestFaultLaterStagePanicDropsRecords(t *testing.T) {
	m := trainedTriangleModel(t)
	search := func(tg *core.AttackTarget) *core.SearchResult {
		cfg := core.DefaultGradientConfig()
		cfg.Iters = 30
		cfg.Restarts = 4
		cfg.EvalEvery = 5
		cfg.Patience = 0
		cfg.Seed = 7
		res, err := core.GradientSearchContext(context.Background(), tg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := search(target(m))

	for _, tc := range []struct {
		name  string
		inVJP bool
	}{{"forward", false}, {"pullback", true}} {
		t.Run(tc.name, func(t *testing.T) {
			trap := &trapStage{fire: func() { panic("simulated later-stage fault") }}
			if tc.inVJP {
				trap.vjpAt = 3
			} else {
				trap.fwdAt = 3
			}
			tg := target(m)
			tg.Pipeline = trapPipeline(tg.Pipeline, 3, trap)
			if !tg.Pipeline.BatchCapable() {
				t.Fatal("trapped pipeline is not batch-capable; the search would not run one group")
			}
			faulted := search(tg)
			for r, rs := range faulted.Restarts {
				if rs.Stop != core.StopFaulted || rs.Fault == nil || rs.Fault.Stage != "pipeline-vjp" {
					t.Fatalf("restart %d = %+v, want faulted in pipeline-vjp (the group is retired)", r, rs)
				}
			}
			runtime.GC()
			sameSearch(t, fresh, search(tg))
		})
	}
}

func sameSearch(t *testing.T, want, got *core.SearchResult) {
	t.Helper()
	if math.Float64bits(want.BestRatio) != math.Float64bits(got.BestRatio) {
		t.Fatalf("BestRatio %v, want %v", got.BestRatio, want.BestRatio)
	}
	sameBits(t, "BestX", want.BestX, got.BestX)
	if want.Evals != got.Evals || want.GradEvals != got.GradEvals || want.LPEvals != got.LPEvals {
		t.Fatalf("budget counters (%d,%d,%d), want (%d,%d,%d)",
			got.Evals, got.GradEvals, got.LPEvals, want.Evals, want.GradEvals, want.LPEvals)
	}
	if len(want.Trace) != len(got.Trace) {
		t.Fatalf("trace length %d, want %d", len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if want.Trace[i].Iter != got.Trace[i].Iter || want.Trace[i].Ratio != got.Trace[i].Ratio {
			t.Fatalf("trace[%d] = (%d, %v), want (%d, %v)", i,
				got.Trace[i].Iter, got.Trace[i].Ratio, want.Trace[i].Iter, want.Trace[i].Ratio)
		}
	}
	for r := range want.Restarts {
		a, b := want.Restarts[r], got.Restarts[r]
		if a.Stop != b.Stop || a.Iters != b.Iters || a.BestRatio != b.BestRatio {
			t.Fatalf("restart %d: %+v, want %+v", r, b, a)
		}
	}
}
