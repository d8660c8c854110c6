package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5) plus the design-choice ablations listed in DESIGN.md §5.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each table/figure bench reports the discovered performance ratio as a
// custom metric ("ratio") and logs the full rows once, so the bench output
// doubles as the raw material for EXPERIMENTS.md. Benchmarks use the quick
// (laptop-scale) setup; cmd/tereport runs the full-scale configuration.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/te"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// benchState caches one trained quick-scale instance; the sync.Once closure
// is the only writer of s and err, and Do's happens-before edge makes the
// fields safe to read afterwards without extra locking.
type benchState struct {
	once sync.Once
	s    *experiments.Setup
	err  error
}

var benchStates = map[dote.Variant]*benchState{dote.Hist: {}, dote.Curr: {}}

// benchSetup lazily prepares (and caches) a trained quick-scale instance.
func benchSetup(b *testing.B, v dote.Variant) *experiments.Setup {
	b.Helper()
	st := benchStates[v]
	st.once.Do(func() {
		st.s, st.err = experiments.Prepare(experiments.QuickSetup(v))
	})
	if st.err != nil {
		b.Fatal(st.err)
	}
	return st.s
}

func benchGradientConfig(seed uint64) core.GradientConfig {
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 120
	cfg.Restarts = 2
	cfg.EvalEvery = 15
	cfg.Seed = seed
	return cfg
}

// BenchmarkTable1_DOTEHist regenerates Table 1's bottom row (and logs all
// four rows on the first iteration): the gray-box gradient search against
// DOTE-Hist on Abilene.
func BenchmarkTable1_DOTEHist(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Hist)
	logged := false
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.GradientSearch(s.Target, benchGradientConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		last = res.BestRatio
		if !logged {
			logged = true
			b.Logf("Table 1 (DOTE-Hist, quick scale): gradient-based ratio %.2fx in %v",
				res.BestRatio, res.TimeToBest.Round(time.Millisecond))
		}
	}
	b.ReportMetric(last, "ratio")
}

// BenchmarkTable1_Rows regenerates the OTHER rows of Table 1: test set,
// random search and the white-box baseline.
func BenchmarkTable1_Rows(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Hist)
	b.Run("test-set", func(b *testing.B) {

		b.ReportAllocs()
		var last float64
		for i := 0; i < b.N; i++ {
			stats, err := dote.Evaluate(s.Model, s.TestEx)
			if err != nil {
				b.Fatal(err)
			}
			last = stats.MaxRatio
		}
		b.ReportMetric(last, "ratio")
	})
	b.Run("random-search", func(b *testing.B) {

		b.ReportAllocs()
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := search.Random(s.Target, search.Budget{MaxEvals: 100}, uint64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			last = res.BestRatio
		}
		b.ReportMetric(last, "ratio")
	})
	b.Run("whitebox-budgeted", func(b *testing.B) {

		b.ReportAllocs()
		found := 0.0
		for i := 0; i < b.N; i++ {
			wb, err := whiteboxRow(s)
			if err != nil {
				b.Fatal(err)
			}
			if wb.Found {
				found = wb.BestRatio
			}
		}
		// Expected: 0 (no incumbent within budget) — the "—" cell.
		b.ReportMetric(found, "ratio")
	})
}

func whiteboxRow(s *experiments.Setup) (*core.SearchResult, error) {
	rows, err := experiments.RunComparison(s, experiments.ComparisonBudgets{
		RandomEvals:   1, // minimal: we only want the white-box row here
		WhiteboxNodes: 5,
		WhiteboxTime:  10 * time.Second,
		Gradient: core.GradientConfig{
			Iters: 1, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
			LambdaInit: 1, Restarts: 1, EvalEvery: 1,
		},
	})
	if err != nil {
		return nil, err
	}
	wb := rows[2]
	return &core.SearchResult{Found: wb.Found, BestRatio: wb.Ratio}, nil
}

// BenchmarkTable2_DOTECurr regenerates Table 2: the same search against
// DOTE-Curr (which sees the current matrix, like Teal).
func BenchmarkTable2_DOTECurr(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	logged := false
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.GradientSearch(s.Target, benchGradientConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		last = res.BestRatio
		if !logged {
			logged = true
			b.Logf("Table 2 (DOTE-Curr, quick scale): gradient-based ratio %.2fx in %v",
				res.BestRatio, res.TimeToBest.Round(time.Millisecond))
		}
	}
	b.ReportMetric(last, "ratio")
}

// BenchmarkTable3_StepSensitivity regenerates Table 3: the discovered ratio
// and runtime as α_λ varies with α_d = α_f = 0.01.
func BenchmarkTable3_StepSensitivity(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	for _, alpha := range []float64{0.01, 0.005, 0.05} {
		b.Run(fmt.Sprintf("alphaL=%g", alpha), func(b *testing.B) {

			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchGradientConfig(uint64(i + 7))
				cfg.AlphaL = alpha
				res, err := core.GradientSearch(s.Target, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.BestRatio
			}
			b.ReportMetric(last, "ratio")
		})
	}
}

// BenchmarkFigure3_RoutingMLU regenerates the Figure 3 example and measures
// the routing+MLU substrate.
func BenchmarkFigure3_RoutingMLU(b *testing.B) {
	b.ReportAllocs()
	rows, err := experiments.Figure3()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("Figure 3: %s=%g, %s=%g, %s=%g",
		rows[0].Name, rows[0].MLU, rows[1].Name, rows[1].MLU, rows[2].Name, rows[2].MLU)
	if rows[0].MLU != 1 || rows[1].MLU != 1 || rows[2].MLU != 2 {
		b.Fatal("Figure 3 MLUs deviate from the paper")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5_DemandCDF regenerates Figure 5: the CDF contrast between
// adversarial and training demands.
func BenchmarkFigure5_DemandCDF(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	res, err := core.GradientSearch(s.Target, benchGradientConfig(5))
	if err != nil {
		b.Fatal(err)
	}
	if !res.Found {
		b.Skip("no adversarial input found at bench scale")
	}
	data := experiments.Figure5(s, res.BestX)
	b.Logf("Figure 5 thresholds:   %v", data.Thresholds)
	b.Logf("Figure 5 training CDF: %v", data.Training)
	b.Logf("Figure 5 adv CDF:      %v", data.Adversarial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure5(s, res.BestX)
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationInnerSteps varies T of the multi-step GDA (Eq. 5).
func BenchmarkAblationInnerSteps(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	for _, t := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("T=%d", t), func(b *testing.B) {

			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchGradientConfig(uint64(i + 11))
				cfg.T = t
				cfg.Iters = 60
				res, err := core.GradientSearch(s.Target, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.BestRatio
			}
			b.ReportMetric(last, "ratio")
		})
	}
}

// BenchmarkAblationRestarts varies the restart count.
func BenchmarkAblationRestarts(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	for _, r := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("restarts=%d", r), func(b *testing.B) {

			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchGradientConfig(uint64(i + 13))
				cfg.Restarts = r
				cfg.Iters = 60
				res, err := core.GradientSearch(s.Target, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.BestRatio
			}
			b.ReportMetric(last, "ratio")
		})
	}
}

// BenchmarkAblationObjective compares the Lagrangian reformulation (Eq. 3/4)
// against naive direct ascent on Eq. 2's numerator.
func BenchmarkAblationObjective(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	for _, mode := range []core.ObjectiveMode{core.Lagrangian, core.DirectAscent} {
		b.Run(mode.String(), func(b *testing.B) {

			b.ReportAllocs()
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchGradientConfig(uint64(i + 17))
				cfg.Mode = mode
				cfg.Iters = 60
				res, err := core.GradientSearch(s.Target, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.BestRatio
			}
			b.ReportMetric(last, "ratio")
		})
	}
}

// BenchmarkAblationGradientEstimator compares exact chain-rule gradients
// against finite-difference and SPSA estimates of an opaque routing stage.
func BenchmarkAblationGradientEstimator(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	pipelines := map[string]*core.Pipeline{
		"exact": s.Model.Pipeline(),
		"fd":    s.Model.OpaqueRoutingPipeline().Grayboxed(1e-4),
	}
	x := make([]float64, s.Target.InputDim)
	r := rng.New(3)
	for i := range x {
		x[i] = r.Float64() * s.Target.MaxDemand
	}
	for name, p := range pipelines {
		b.Run(name, func(b *testing.B) {

			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Grad(x)
			}
		})
	}
}

// BenchmarkAblationParallelism measures ParallelGrads throughput as worker
// count grows — the parallel-gradients claim of §3.2.
func BenchmarkAblationParallelism(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	const batch = 32
	xs := make([][]float64, batch)
	r := rng.New(4)
	for i := range xs {
		xs[i] = make([]float64, s.Target.InputDim)
		for j := range xs[i] {
			xs[i][j] = r.Float64() * s.Target.MaxDemand
		}
	}
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {

			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.ParallelGrads(s.Target.Pipeline, xs, w)
			}
		})
	}
}

// BenchmarkAblationHistoryLength trains DOTE-Hist at several window sizes
// and attacks each — the attack surface grows with the window.
func BenchmarkAblationHistoryLength(b *testing.B) {
	b.ReportAllocs()
	base := experiments.QuickSetup(dote.Hist)
	base.Hidden = []int{24}
	base.TrainLen = 40
	base.TestLen = 5
	base.TrainEpochs = 4
	cfg := benchGradientConfig(19)
	cfg.Iters = 60
	cfg.Restarts = 1
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationHistoryLength(base, []int{2, 6, 12}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("history ablation %s: ratio %.2fx", r.Config, r.Ratio)
			}
		}
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkOptimalMLULP measures the simplex solve behind every ratio
// evaluation.
func BenchmarkOptimalMLULP(b *testing.B) {
	b.ReportAllocs()
	ps := paths.NewPathSet(topology.Abilene(), 4)
	gen := traffic.NewGravity(ps, 0.3, rng.New(1))
	tm := gen.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := te.OptimalMLU(ps, tm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineForward measures one end-to-end system evaluation.
func BenchmarkPipelineForward(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	x := make([]float64, s.Target.InputDim)
	r := rng.New(5)
	for i := range x {
		x[i] = r.Float64() * s.Target.MaxDemand
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Target.Pipeline.EvalScalar(x)
	}
}

// BenchmarkPipelineGrad measures one end-to-end chain-rule gradient.
func BenchmarkPipelineGrad(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	x := make([]float64, s.Target.InputDim)
	r := rng.New(6)
	for i := range x {
		x[i] = r.Float64() * s.Target.MaxDemand
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Target.Pipeline.Grad(x)
	}
}

// BenchmarkPipelineBatchGrad measures one lock-step batched gradient over R
// restart rows — the hot path of a multi-restart group. Compare against R
// times the BenchmarkPipelineGrad cost for the batching win.
func BenchmarkPipelineBatchGrad(b *testing.B) {
	s := benchSetup(b, dote.Curr)
	r := rng.New(6)
	for _, rows := range []int{4, 8} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			xs := linalg.NewMatrix(rows, s.Target.InputDim)
			for i := range xs.Data {
				xs.Data[i] = r.Float64() * s.Target.MaxDemand
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Target.Pipeline.BatchGrad(xs)
			}
		})
	}
}

// goExecutor runs every task on its own goroutine, so a search given it
// runs each restart as a one-restart group.
type goExecutor struct{}

func (goExecutor) Run(task func()) { go task() }

// BenchmarkGradSearchEngines runs the full gradient search at Restarts ≥ 4
// under both restart groupings: "scalar" runs one-restart groups on a
// goroutine Executor (the daemon's shape), "batched" runs all restarts as
// one lock-step group. The discovered ratios are identical by construction
// (TestRestartGroupingInvariant pins this down bitwise). LP ratio-scoring
// does not depend on grouping and dominates at the default eval cadence
// (profile: lp.pivot ≈ 84% of samples), so the ratio is evaluated once at
// the end here to measure the per-iteration descent–ascent loop itself.
func BenchmarkGradSearchEngines(b *testing.B) {
	s := benchSetup(b, dote.Curr)
	for _, restarts := range []int{4, 8} {
		for _, grouping := range []struct {
			name string
			exec core.Executor
		}{{"scalar", goExecutor{}}, {"batched", nil}} {
			b.Run(fmt.Sprintf("restarts=%d/%s", restarts, grouping.name), func(b *testing.B) {
				b.ReportAllocs()
				var last float64
				for i := 0; i < b.N; i++ {
					cfg := benchGradientConfig(uint64(i + 23))
					cfg.Restarts = restarts
					cfg.Iters = 60
					cfg.EvalEvery = cfg.Iters // score once: isolate engine cost
					cfg.Executor = grouping.exec
					res, err := core.GradientSearch(s.Target, cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = res.BestRatio
				}
				b.ReportMetric(last, "ratio")
			})
		}
	}
}

// BenchmarkKShortestPaths measures the Yen path-set construction (§5, K=4).
func BenchmarkKShortestPaths(b *testing.B) {
	b.ReportAllocs()
	g := topology.Abilene()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths.NewPathSet(g, 4)
	}
}

// BenchmarkRouting measures the bilinear routing step alone.
func BenchmarkRouting(b *testing.B) {
	b.ReportAllocs()
	ps := paths.NewPathSet(topology.Abilene(), 4)
	gen := traffic.NewGravity(ps, 0.3, rng.New(7))
	tm := gen.Next()
	splits := te.UniformSplits(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		te.MLU(ps, tm, splits)
	}
}

// BenchmarkDOTETrainingStep measures one end-to-end training step
// (forward + backward + harvest) of the quick-scale DOTE model.
func BenchmarkDOTETrainingStep(b *testing.B) {
	b.ReportAllocs()
	s := benchSetup(b, dote.Curr)
	ex := s.TrainEx[0]
	opts := dote.DefaultTrainOptions()
	opts.Epochs = 1
	opts.BatchSize = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dote.Train(s.Model, []traffic.Example{ex}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// incrementalBenchModel builds an untrained DOTE-Curr model on the largest
// stock topology (Geant, 22 nodes, K=4). Training does not change the FD
// gradient's cost profile, so untrained weights keep setup cheap.
func incrementalBenchModel() *dote.Model {
	ps := paths.NewPathSet(topology.Geant(), 4)
	cfg := dote.DefaultConfig(dote.Curr)
	cfg.Hidden = []int{48}
	return dote.New(ps, cfg)
}

// BenchmarkIncrementalFDGrad is the tentpole's headline number: one
// gray-box FD gradient of the fused routing+MLU stage on Geant, dense
// full-vector probing versus incremental sparse probes. The two sub-benches
// compute bitwise-identical gradients (pinned by the dote equivalence
// tests); the acceptance bar is sparse ≥ 3x faster than dense.
func BenchmarkIncrementalFDGrad(b *testing.B) {
	m := incrementalBenchModel()
	pipelines := []struct {
		name string
		p    *core.Pipeline
	}{
		{"dense", m.OpaqueRoutingPipelineDense().Grayboxed(1e-4)},
		{"sparse", m.OpaqueRoutingPipeline().Grayboxed(1e-4)},
	}
	x := make([]float64, m.InputDim())
	r := rng.New(9)
	maxD := m.PS.Graph.AvgLinkCapacity()
	for i := range x {
		x[i] = r.Float64() * maxD
	}
	for _, pl := range pipelines {
		b.Run(pl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl.p.Grad(x)
			}
		})
	}
}

// BenchmarkEvalCacheMemo measures true-ratio scoring against the sharded
// memo cache: "miss" scores b.N distinct demand vectors (cache misses plus
// the LP solve), "hit" rescoring one resident point, "nocache" the
// uncached baseline on that same point.
func BenchmarkEvalCacheMemo(b *testing.B) {
	s := benchSetup(b, dote.Curr)
	target := s.Target
	r := rng.New(10)
	x := make([]float64, target.InputDim)
	for i := range x {
		x[i] = r.Float64() * target.MaxDemand
	}
	ctx := context.Background()

	b.Run("nocache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := target.RatioCtx(ctx, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		cache := core.NewEvalCache(1<<12, 0)
		// Prime the entry once, then measure pure hits.
		if _, _, _, _, err := target.RatioCached(ctx, cache, x); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, _, err := target.RatioCached(ctx, cache, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		cache := core.NewEvalCache(1<<20, 0)
		xs := make([]float64, target.InputDim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(xs, x)
			xs[0] = x[0] + float64(i)*1e-3 // distinct quantized key per iter
			if _, _, _, _, err := target.RatioCached(ctx, cache, xs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
