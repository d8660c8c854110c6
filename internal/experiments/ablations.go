package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// AblationRow is one configuration of a design-choice ablation.
type AblationRow struct {
	Config  string
	Ratio   float64
	Found   bool
	Runtime time.Duration
	// GradEvals counts end-to-end gradient computations spent.
	GradEvals int
	// TrueEvals counts true evaluations of the opaque stage (probe calls
	// plus forward sweeps) for the gray-box estimator ablation; -1 when the
	// notion does not apply (white-box rows, ablations that never probe).
	TrueEvals int64
}

// AblationInnerSteps varies T, the number of inner ascent steps per outer
// GDA iteration (Eq. 5). The paper fixes T = 1; more inner steps trade
// gradient evaluations for tighter inner maximization.
func AblationInnerSteps(s *Setup, ts []int, base core.GradientConfig) ([]AblationRow, error) {
	var rows []AblationRow
	for _, t := range ts {
		cfg := base
		cfg.T = t
		cfg.Seed = s.Opts.Seed + 600
		res, err := core.GradientSearch(s.Target, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config:    fmt.Sprintf("T=%d", t),
			Ratio:     res.BestRatio,
			Found:     res.Found,
			Runtime:   res.TimeToBest,
			GradEvals: res.GradEvals,
			TrueEvals: -1,
		})
	}
	return rows, nil
}

// AblationRestarts varies the number of random restarts.
func AblationRestarts(s *Setup, restarts []int, base core.GradientConfig) ([]AblationRow, error) {
	var rows []AblationRow
	for _, r := range restarts {
		cfg := base
		cfg.Restarts = r
		cfg.Seed = s.Opts.Seed + 700
		res, err := core.GradientSearch(s.Target, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config:    fmt.Sprintf("restarts=%d", r),
			Ratio:     res.BestRatio,
			Found:     res.Found,
			Runtime:   res.TimeToBest,
			GradEvals: res.GradEvals,
			TrueEvals: -1,
		})
	}
	return rows, nil
}

// AblationObjective compares the paper's Lagrangian reformulation (Eq. 3/4)
// against naive direct ascent on the numerator of Eq. 2.
func AblationObjective(s *Setup, base core.GradientConfig) ([]AblationRow, error) {
	var rows []AblationRow
	for _, mode := range []core.ObjectiveMode{core.Lagrangian, core.DirectAscent} {
		cfg := base
		cfg.Mode = mode
		cfg.Seed = s.Opts.Seed + 800
		res, err := core.GradientSearch(s.Target, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config:    mode.String(),
			Ratio:     res.BestRatio,
			Found:     res.Found,
			Runtime:   res.TimeToBest,
			GradEvals: res.GradEvals,
			TrueEvals: -1,
		})
	}
	return rows, nil
}

// AblationGradientEstimator compares the exact chain-rule gradient against
// the sampled estimators (finite differences, SPSA, and the §6 online DNN
// surrogate) applied to an opaque routing+MLU stage — the gray-box spectrum
// of §3.2/§6. Alongside ratio and runtime it reports each estimator's
// true-evaluation bill for the opaque stage. The FD row probes only each
// row's certified support, so its bill is read from the search's own
// telemetry: the te.incr.probes it made plus every full forward of the
// stage. The others are counted analytically: 2·probes+1 (SPSA) or 1
// (surrogate) per gradient, plus one per scoring eval.
func AblationGradientEstimator(s *Setup, base core.GradientConfig) ([]AblationRow, error) {
	fd := s.Model.OpaqueRoutingPipeline().Grayboxed(1e-4)
	fdStages := fd.Stages()
	fdForwards := "pipeline." + fdStages[len(fdStages)-1].Name() + ".forward.ms"
	pipelines := []struct {
		name      string
		p         *core.Pipeline
		trueEvals func(res *core.SearchResult) int64
	}{
		{"exact chain rule", s.Model.Pipeline(),
			func(*core.SearchResult) int64 { return -1 }},
		{"finite differences", fd,
			func(res *core.SearchResult) int64 {
				tel := res.Telemetry
				return tel.Counters["te.incr.probes"] + tel.Histograms[fdForwards].Count
			}},
		{"spsa (64 probes)", spsaPipeline(s, 64),
			func(res *core.SearchResult) int64 { return int64(res.GradEvals)*(2*64+1) + int64(res.Evals) }},
		{"online dnn surrogate", surrogatePipeline(s),
			func(res *core.SearchResult) int64 { return int64(res.GradEvals) + int64(res.Evals) }},
	}
	var rows []AblationRow
	for _, pl := range pipelines {
		target := *s.Target
		target.Pipeline = pl.p
		cfg := base
		cfg.Seed = s.Opts.Seed + 900
		cfg.Obs = obs.NewRegistry()
		res, err := core.GradientSearch(&target, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config:    pl.name,
			Ratio:     res.BestRatio,
			Found:     res.Found,
			Runtime:   res.TimeToBest,
			GradEvals: res.GradEvals,
			TrueEvals: pl.trueEvals(res),
		})
	}
	return rows, nil
}

// spsaPipeline wraps the opaque routing stage with an SPSA estimator.
func spsaPipeline(s *Setup, probes int) *core.Pipeline {
	opaque := s.Model.OpaqueRoutingPipeline()
	stages := opaque.Stages()
	wrapped := make([]core.Component, len(stages))
	for i, st := range stages {
		if _, ok := st.(core.Differentiable); ok {
			wrapped[i] = st
		} else {
			wrapped[i] = core.WithSPSA(st, 1e-3, probes, s.Opts.Seed+1000)
		}
	}
	return core.NewPipeline(wrapped...)
}

// surrogatePipeline wraps the opaque routing stage with the §6 online DNN
// surrogate, whose training is folded into the search.
func surrogatePipeline(s *Setup) *core.Pipeline {
	opaque := s.Model.OpaqueRoutingPipeline()
	stages := opaque.Stages()
	inDim := s.Model.TotalPaths() + s.Model.NumPairs()
	cfg := core.DefaultSurrogateConfig(s.Opts.Seed + 1400)
	cfg.InputScale = s.Target.MaxDemand
	wrapped := make([]core.Component, len(stages))
	for i, st := range stages {
		if _, ok := st.(core.Differentiable); ok {
			wrapped[i] = st
		} else {
			wrapped[i] = core.WithOnlineSurrogate(st, inDim, 1, cfg)
		}
	}
	return core.NewPipeline(wrapped...)
}

// AblationParallelism measures gradient-evaluation throughput with
// different worker counts — quantifying the "compute gradients in parallel"
// benefit claimed in §3.2.
type ParallelismRow struct {
	Workers    int
	Throughput float64 // end-to-end gradients per second, scalar workers
	// BatchedThroughput is gradients per second when the same batch runs
	// lock-step through Pipeline.BatchGrad (a restart group's hot
	// path) instead of per-row worker goroutines. Zero when the pipeline has
	// a stage without a native batched implementation.
	BatchedThroughput float64
}

// AblationMomentum compares plain ascent against heavy-ball momentum on
// the demand updates.
func AblationMomentum(s *Setup, momenta []float64, base core.GradientConfig) ([]AblationRow, error) {
	var rows []AblationRow
	for _, m := range momenta {
		cfg := base
		cfg.Momentum = m
		cfg.Seed = s.Opts.Seed + 1200
		res, err := core.GradientSearch(s.Target, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config:    fmt.Sprintf("momentum=%g", m),
			Ratio:     res.BestRatio,
			Found:     res.Found,
			Runtime:   res.TimeToBest,
			GradEvals: res.GradEvals,
			TrueEvals: -1,
		})
	}
	return rows, nil
}

// ScaleRow reports the analyzer's behaviour on one topology.
type ScaleRow struct {
	Topology string
	Pairs    int
	Ratio    float64
	Runtime  time.Duration
}

// RunTopologyScale runs the gradient attack across topologies of growing
// size — the scalability axis on which white-box tools collapse (§3.1) and
// the gray-box analyzer keeps working.
func RunTopologyScale(base SetupOptions, topologies []string, cfg core.GradientConfig) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, topo := range topologies {
		opts := base
		opts.Topology = topo
		s, err := Prepare(opts)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Seed = opts.Seed + 1300
		res, err := core.GradientSearch(s.Target, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{
			Topology: topo,
			Pairs:    s.PS.NumPairs(),
			Ratio:    res.BestRatio,
			Runtime:  res.TimeToBest,
		})
	}
	return rows, nil
}

// AblationHistoryLength trains DOTE-Hist with different history windows K
// and attacks each: longer histories give the DNN more context for benign
// traffic but also a larger attack surface (the adversary chooses the whole
// window), so the discovered gap typically grows with K.
func AblationHistoryLength(base SetupOptions, ks []int, cfg core.GradientConfig) ([]AblationRow, error) {
	var rows []AblationRow
	for _, k := range ks {
		opts := base
		opts.Variant = dote.Hist
		opts.HistLen = k
		s, err := Prepare(opts)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Seed = opts.Seed + 1100
		res, err := core.GradientSearch(s.Target, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config:    fmt.Sprintf("K=%d", k),
			Ratio:     res.BestRatio,
			Found:     res.Found,
			Runtime:   res.TimeToBest,
			GradEvals: res.GradEvals,
			TrueEvals: -1,
		})
	}
	return rows, nil
}

// AblationParallelism benchmarks ParallelGrads over a fixed batch, and —
// when the pipeline batches natively — the same batch through the lock-step
// BatchGrad path for a batched-vs-scalar throughput comparison.
func AblationParallelism(s *Setup, workers []int, batch int) []ParallelismRow {
	xs := make([][]float64, batch)
	for i := range xs {
		xs[i] = make([]float64, s.Target.InputDim)
		for j := range xs[i] {
			xs[i][j] = float64((i+j)%7) / 7 * s.Target.MaxDemand
		}
	}
	batched := 0.0
	if s.Target.Pipeline.BatchCapable() {
		xm := linalg.NewMatrix(batch, s.Target.InputDim)
		for i := range xs {
			copy(xm.Row(i), xs[i])
		}
		s.Target.Pipeline.BatchGrad(xm) // warm pools outside the timed run
		start := time.Now()
		s.Target.Pipeline.BatchGrad(xm)
		batched = float64(batch) / time.Since(start).Seconds()
	}
	var rows []ParallelismRow
	for _, w := range workers {
		start := time.Now()
		core.ParallelGrads(s.Target.Pipeline, xs, w)
		elapsed := time.Since(start)
		rows = append(rows, ParallelismRow{
			Workers:           w,
			Throughput:        float64(batch) / elapsed.Seconds(),
			BatchedThroughput: batched,
		})
	}
	return rows
}
