package dote

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

// geantModel is an untrained DOTE-Curr model on GÉANT at K=4, the shape of
// the CI-gate checkpoint: n = 2292 FD coordinates at the fused stage.
func geantModel() *Model {
	cfg := DefaultConfig(Curr)
	cfg.Hidden = []int{48}
	return New(paths.NewPathSet(topology.Geant(), 4), cfg)
}

// randStageInput draws a [splits | demand] vector for the fused routing+MLU
// stage, with a sprinkling of exact zeros so the f==0 skip in the forward
// kernel and the d==0 skip in the split probes stay exercised.
func randStageInput(m *Model, r *rng.RNG) []float64 {
	x := make([]float64, m.TotalPaths()+m.NumPairs())
	for i := 0; i < m.TotalPaths(); i++ {
		x[i] = r.Float64()
	}
	maxD := m.PS.Graph.AvgLinkCapacity()
	for i := 0; i < m.NumPairs(); i++ {
		v := r.Float64() * maxD
		if r.Float64() < 0.1 {
			v = 0
		}
		x[m.TotalPaths()+i] = v
	}
	return x
}

// TestOpaqueStageForwardBitwise pins the fused stage's contract: its forward
// is bitwise identical to the tape-based routingStage→mluStage composition
// it replaced, at arbitrary (not just softmax-normalized) inputs.
func TestOpaqueStageForwardBitwise(t *testing.T) {
	for _, m := range []*Model{smallModel(t, Curr), abileneModel(Curr, []int{16})} {
		fused := newOpaqueRoutingStage(m)
		routing := &routingStage{m}
		var mlu mluStage
		r := rng.New(42)
		for trial := 0; trial < 50; trial++ {
			x := randStageInput(m, r)
			want := mlu.Forward(routing.Forward(x))[0]
			got := fused.Forward(x)[0]
			if got != want {
				t.Fatalf("trial %d: fused forward %v != composed %v", trial, got, want)
			}
		}
	}
}

// TestOpaqueSparseGradBitwise checks the end-to-end estimator equivalence:
// the gray-box FD gradient through incremental probes equals the dense
// full-forward FD gradient bitwise, coordinate for coordinate.
func TestOpaqueSparseGradBitwise(t *testing.T) {
	m := abileneModel(Curr, []int{16})
	sparse := m.OpaqueRoutingPipeline().Grayboxed(1e-4)
	dense := m.OpaqueRoutingPipelineDense().Grayboxed(1e-4)
	maxD := m.PS.Graph.AvgLinkCapacity()
	r := rng.New(7)
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, m.InputDim())
		for i := range x {
			x[i] = r.Float64() * maxD
		}
		gs := sparse.Grad(x)
		gd := dense.Grad(x)
		for j := range gs {
			if gs[j] != gd[j] {
				t.Fatalf("trial %d grad[%d]: sparse %v != dense %v", trial, j, gs[j], gd[j])
			}
		}
	}
}

// TestCertifiedRowsMatchFullRowsGeant pins the certified sweep against the
// dense full-forward reference at random GÉANT demand points: the sparse
// estimator probes only the prober's certified support, and every row —
// scalar VJPCtx and batched BatchVJPCtx (R = 3) — must still equal the full
// FD row bitwise. The test also checks the certificate really restricts the
// sweep, so it cannot pass vacuously.
func TestCertifiedRowsMatchFullRowsGeant(t *testing.T) {
	m := geantModel()
	certified := m.OpaqueRoutingPipeline().Grayboxed(1e-4)
	dense := m.OpaqueRoutingPipelineDense().Grayboxed(1e-4)
	stage := newOpaqueRoutingStage(m)
	maxD := m.PS.Graph.AvgLinkCapacity()
	r := rng.New(23)
	ctx := context.Background()
	const R = 3
	xs := linalg.NewMatrix(R, m.InputDim())
	ybars := linalg.NewMatrix(R, 1)
	for row := 0; row < R; row++ {
		x := xs.Row(row)
		for i := range x {
			x[i] = r.Float64() * maxD
		}
		ybars.Row(row)[0] = []float64{1, -0.75, 2.5}[row]

		// The fused stage's input at this point, and its certified support.
		in := x
		for _, s := range certified.Stages()[:2] {
			in = s.Forward(in)
		}
		pr := stage.SparseProber(in)
		sup := pr.(core.SupportCertifier).CertifiedSupport(1e-4)
		pr.Close()
		if n := len(in); len(sup) == 0 || len(sup) >= n/2 {
			t.Fatalf("row %d: certified support %d of %d coordinates; want a nonempty strict restriction", row, len(sup), n)
		}

		gc, err := certified.VJPCtx(ctx, x, ybars.Row(row))
		if err != nil {
			t.Fatal(err)
		}
		gd, err := dense.VJPCtx(ctx, x, ybars.Row(row))
		if err != nil {
			t.Fatal(err)
		}
		for j := range gc {
			if gc[j] != gd[j] {
				t.Fatalf("row %d grad[%d]: certified %v != full %v", row, j, gc[j], gd[j])
			}
		}
	}
	bc, err := certified.BatchVJPCtx(ctx, xs, ybars)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := dense.BatchVJPCtx(ctx, xs, ybars)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bc.Data {
		if bc.Data[i] != bd.Data[i] {
			t.Fatalf("batch grad[%d]: certified %v != full %v", i, bc.Data[i], bd.Data[i])
		}
	}
}

func attackTargetFor(m *Model, p *core.Pipeline) *core.AttackTarget {
	return &core.AttackTarget{
		Pipeline:  p,
		InputDim:  m.InputDim(),
		DemandLen: m.NumPairs(),
		PS:        m.PS,
		MaxDemand: m.PS.Graph.AvgLinkCapacity(),
	}
}

// goExecutor runs every task on its own goroutine: a search given it runs
// each restart as a one-restart group, as the daemon's pool does.
type goExecutor struct{}

func (goExecutor) Run(task func()) { go task() }

// TestOpaqueSearchTrajectoryEquivalence pins the sparse FD path (certified
// support on the fused stage) to the dense full-vector reference: a
// fixed-seed gradient search takes exactly the same trajectory — identical
// accepted steps, best point, and eval counts — whether the restarts run as
// one-restart groups on an Executor or as one lock-step group. The GÉANT
// leg runs the CI-gate budget (iters 50, restarts 1, eval_every 50).
func TestOpaqueSearchTrajectoryEquivalence(t *testing.T) {
	legs := []struct {
		name                             string
		model                            func() *Model
		iters, restarts, evalEvery, seed int
	}{
		{"abilene", func() *Model { return abileneModel(Curr, []int{16}) }, 30, 2, 5, 11},
		{"geant-gate", geantModel, 50, 1, 50, 1},
	}
	for _, leg := range legs {
		m := leg.model()
		for _, grouping := range []struct {
			name string
			exec core.Executor
		}{{"singleton", goExecutor{}}, {"grouped", nil}} {
			cfg := core.DefaultGradientConfig()
			cfg.Iters = leg.iters
			cfg.Restarts = leg.restarts
			cfg.EvalEvery = leg.evalEvery
			cfg.Seed = uint64(leg.seed)
			cfg.Executor = grouping.exec
			name := leg.name + "/" + grouping.name

			sparseTarget := attackTargetFor(m, m.OpaqueRoutingPipeline().Grayboxed(1e-4))
			denseTarget := attackTargetFor(m, m.OpaqueRoutingPipelineDense().Grayboxed(1e-4))

			rs, err := core.GradientSearch(sparseTarget, cfg)
			if err != nil {
				t.Fatalf("%s sparse search: %v", name, err)
			}
			rd, err := core.GradientSearch(denseTarget, cfg)
			if err != nil {
				t.Fatalf("%s dense search: %v", name, err)
			}

			if rs.BestRatio != rd.BestRatio {
				t.Fatalf("%s: BestRatio %v != %v", name, rs.BestRatio, rd.BestRatio)
			}
			if rs.BestSysMLU != rd.BestSysMLU || rs.BestOptMLU != rd.BestOptMLU {
				t.Fatalf("%s: best MLU decomposition diverged", name)
			}
			if len(rs.BestX) != len(rd.BestX) {
				t.Fatalf("%s: BestX lengths differ", name)
			}
			for i := range rs.BestX {
				if rs.BestX[i] != rd.BestX[i] {
					t.Fatalf("%s: BestX[%d] %v != %v", name, i, rs.BestX[i], rd.BestX[i])
				}
			}
			if rs.Evals != rd.Evals || rs.GradEvals != rd.GradEvals || rs.LPEvals != rd.LPEvals {
				t.Fatalf("%s: eval counts diverged: sparse (%d,%d,%d) dense (%d,%d,%d)", name,
					rs.Evals, rs.GradEvals, rs.LPEvals, rd.Evals, rd.GradEvals, rd.LPEvals)
			}
			// Identical accepted steps: every improvement lands on the same
			// iteration with the same ratio.
			if len(rs.Trace) != len(rd.Trace) {
				t.Fatalf("%s: trace lengths differ: %d != %d", name, len(rs.Trace), len(rd.Trace))
			}
			for i := range rs.Trace {
				if rs.Trace[i].Iter != rd.Trace[i].Iter || rs.Trace[i].Ratio != rd.Trace[i].Ratio {
					t.Fatalf("%s: trace[%d] (%d, %v) != (%d, %v)", name, i,
						rs.Trace[i].Iter, rs.Trace[i].Ratio, rd.Trace[i].Iter, rd.Trace[i].Ratio)
				}
			}
		}
	}
}

// TestOpaqueSearchWithEvalCacheSameAnswer runs the same sparse search with
// and without the memo cache: scoring must agree (the cache only suppresses
// duplicate LP solves, never changes values).
func TestOpaqueSearchWithEvalCacheSameAnswer(t *testing.T) {
	m := abileneModel(Curr, []int{16})
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 30
	cfg.Restarts = 2
	cfg.EvalEvery = 5
	cfg.Seed = 11

	plain, err := core.GradientSearch(attackTargetFor(m, m.OpaqueRoutingPipeline().Grayboxed(1e-4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewEvalCache(1<<12, 0)
	cfg.EvalCache = cache
	cached, err := core.GradientSearch(attackTargetFor(m, m.OpaqueRoutingPipeline().Grayboxed(1e-4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BestRatio != cached.BestRatio {
		t.Fatalf("cache changed the answer: %v != %v", cached.BestRatio, plain.BestRatio)
	}
	st := cache.Stats()
	if st.Misses == 0 {
		t.Fatal("cache saw no traffic")
	}
	if cached.Evals > plain.Evals {
		t.Fatalf("cached run counted more evals (%d) than plain (%d)", cached.Evals, plain.Evals)
	}
}
