package core_test

// Equivalence tests for restart groups: batched stage sweeps must reproduce
// the scalar oracles (oracle_test.go, dote_oracle_test.go) exactly, and a search must return the same
// result whether its restarts run as one-restart groups or as one lock-step
// group — including restarts retired early by Patience or by a fault.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// randomBatch builds an [R, n] batch of box-bounded inputs.
func randomBatch(r *rng.RNG, rows, n int, maxDemand float64) *linalg.Matrix {
	xs := linalg.NewMatrix(rows, n)
	for i := range xs.Data {
		xs.Data[i] = r.Float64() * maxDemand
	}
	return xs
}

func TestBatchForwardMatchesScalarRows(t *testing.T) {
	m := trainedTriangleModel(t)
	p := m.Pipeline()
	if !p.BatchCapable() {
		t.Fatal("exact DOTE pipeline should be batch-capable")
	}
	xs := randomBatch(rng.New(21), 5, m.InputDim(), m.PS.Graph.AvgLinkCapacity())
	outs := p.BatchForward(xs)
	oracle := oraclePipeline(m)
	for r := 0; r < xs.Rows; r++ {
		want := oracle.Forward(xs.Row(r))
		got := outs.Row(r)
		if len(got) != len(want) {
			t.Fatalf("row %d: batch output width %d, scalar %d", r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d col %d: batch %v, scalar %v (must be bitwise equal)",
					r, i, got[i], want[i])
			}
		}
	}
}

func TestBatchGradMatchesScalarRows(t *testing.T) {
	m := trainedTriangleModel(t)
	p := m.Pipeline()
	xs := randomBatch(rng.New(22), 6, m.InputDim(), m.PS.Graph.AvgLinkCapacity())
	grads := p.BatchGrad(xs)
	oracle := oraclePipeline(m)
	for r := 0; r < xs.Rows; r++ {
		want := oracle.VJP(xs.Row(r), []float64{1})
		got := grads.Row(r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d coord %d: batch grad %v, scalar %v (must be bitwise equal)",
					r, i, got[i], want[i])
			}
		}
	}
}

// TestBatchVJPGrayboxMatchesScalarRows covers the estimator path: the FD
// wrapper's (row, stripe) sweep estimates each coordinate with the scalar
// arithmetic, so its rows agree bitwise with the scalar FD oracle.
func TestBatchVJPGrayboxMatchesScalarRows(t *testing.T) {
	m := trainedTriangleModel(t)
	p := m.OpaqueRoutingPipeline().Grayboxed(1e-5)
	if !p.BatchCapable() {
		t.Fatal("grayboxed pipeline should be batch-capable (fd wrapper batches)")
	}
	xs := randomBatch(rng.New(23), 3, m.InputDim(), m.PS.Graph.AvgLinkCapacity())
	grads := p.BatchGrad(xs)
	oracle := oracleOpaque(m, func(c core.Component) core.Component { return core.NewScalarFD(c, 1e-5) })
	for r := 0; r < xs.Rows; r++ {
		want := oracle.VJP(xs.Row(r), []float64{1})
		got := grads.Row(r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d coord %d: batch FD grad %v, scalar %v", r, i, got[i], want[i])
			}
		}
	}
}

// goExecutor runs every task on its own goroutine: a search given it runs
// each restart as a one-restart group, concurrently.
type goExecutor struct{}

func (goExecutor) Run(task func()) { go task() }

// TestRestartGroupingInvariant is the engine's grouping contract: a search
// whose restarts run as one-restart groups on an Executor and the same
// search run as one lock-step group of R rows take identical per-restart
// trajectories, so they return bitwise the same result and budget counters
// — with restarts retired early by Patience and one retired by an injected
// mid-run fault. The score is a pure function of the iterate (the system
// MLU times a ripple in the total demand, which stalls along an ascent so
// Patience fires), so the comparison is bitwise end to end.
func TestRestartGroupingInvariant(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)
	tg.RatioOverride = func(x []float64) (float64, float64, float64, error) {
		sys := tg.Pipeline.EvalScalar(x)
		total := 0.0
		for _, v := range x {
			total += v
		}
		return sys * (2 + math.Sin(total)), sys, 1, nil
	}

	for _, restarts := range []int{4, 8} {
		run := func(exec core.Executor) (*core.SearchResult, *recordingInjector) {
			cfg := core.DefaultGradientConfig()
			cfg.Iters = 60
			cfg.Restarts = restarts
			cfg.EvalEvery = 3
			cfg.Patience = 2   // aggressive so some restarts retire early
			cfg.Momentum = 0.9 // velocity rows are per-restart state too
			cfg.Seed = 13
			cfg.Executor = exec
			ri := newRecordingInjector(1, 9)
			cfg.FaultInjector = ri.hook
			res, err := core.GradientSearch(tg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, ri
		}
		single, singleTraj := run(goExecutor{})
		group, groupTraj := run(nil)

		if !single.Found || !group.Found {
			t.Fatalf("R=%d found: singleton groups %v, one group %v", restarts, single.Found, group.Found)
		}
		if single.BestRatio != group.BestRatio || single.BestSysMLU != group.BestSysMLU || single.BestOptMLU != group.BestOptMLU {
			t.Fatalf("R=%d best: singleton groups (%v,%v,%v), one group (%v,%v,%v)", restarts,
				single.BestRatio, single.BestSysMLU, single.BestOptMLU, group.BestRatio, group.BestSysMLU, group.BestOptMLU)
		}
		for i := range single.BestX {
			if single.BestX[i] != group.BestX[i] {
				t.Fatalf("R=%d BestX[%d]: singleton groups %v, one group %v", restarts, i, single.BestX[i], group.BestX[i])
			}
		}
		if single.Evals != group.Evals || single.GradEvals != group.GradEvals || single.LPEvals != group.LPEvals {
			t.Fatalf("R=%d budget counters: singleton groups (%d,%d,%d), one group (%d,%d,%d)", restarts,
				single.Evals, single.GradEvals, single.LPEvals, group.Evals, group.GradEvals, group.LPEvals)
		}
		if len(single.Trace) != len(group.Trace) {
			t.Fatalf("R=%d trace lengths: %d vs %d", restarts, len(single.Trace), len(group.Trace))
		}
		for i := range single.Trace {
			if single.Trace[i].Iter != group.Trace[i].Iter || single.Trace[i].Ratio != group.Trace[i].Ratio {
				t.Fatalf("R=%d trace[%d]: (%d, %v) vs (%d, %v)", restarts, i,
					single.Trace[i].Iter, single.Trace[i].Ratio, group.Trace[i].Iter, group.Trace[i].Ratio)
			}
		}
		patience := 0
		for r := 0; r < restarts; r++ {
			a, b := single.Restarts[r], group.Restarts[r]
			if a.Stop != b.Stop || a.Iters != b.Iters || a.BestRatio != b.BestRatio {
				t.Fatalf("R=%d restart %d: singleton groups %+v, one group %+v", restarts, r, a, b)
			}
			if a.Stop == core.StopPatience {
				patience++
			}
			want, got := groupTraj.traj[r], singleTraj.traj[r]
			if len(want) != len(got) {
				t.Fatalf("R=%d restart %d: %d iterations vs %d", restarts, r, len(got), len(want))
			}
			for it := range want {
				for i := range want[it] {
					if want[it][i] != got[it][i] {
						t.Fatalf("R=%d restart %d iter %d coord %d: %v != %v", restarts, r, it, i, got[it][i], want[it][i])
					}
				}
			}
		}
		// Both retirement paths must actually have been exercised.
		if f := group.Restarts[1]; f.Stop != core.StopFaulted || f.Fault == nil || f.Fault.Iter != 9 {
			t.Fatalf("R=%d restart 1 = %+v, want faulted at iter 9", restarts, f)
		}
		if patience == 0 {
			t.Fatalf("R=%d: no restart retired by Patience; that path is untested", restarts)
		}
	}
}
