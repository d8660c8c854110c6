package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// trainedModel returns a briefly trained model of the given variant.
func trainedModel(t *testing.T, v dote.Variant, histLen int) *dote.Model {
	t.Helper()
	ps := paths.NewPathSet(topology.Triangle(), 2)
	cfg := dote.DefaultConfig(v)
	cfg.Hidden = []int{16}
	if v == dote.Hist {
		cfg.HistLen = histLen
	}
	m := dote.New(ps, cfg)
	gen := traffic.NewGravity(ps, 0.3, rng.New(31))
	var ex []traffic.Example
	if v == dote.Curr {
		ex = traffic.CurrWindows(traffic.Sequence(gen, 40))
	} else {
		ex = traffic.Windows(traffic.Sequence(gen, 40), cfg.HistLen)
	}
	opts := dote.DefaultTrainOptions()
	opts.Epochs = 8
	opts.LR = 3e-3
	if _, err := dote.Train(m, ex, opts); err != nil {
		t.Fatal(err)
	}
	return m
}

func targetFor(m *dote.Model) *core.AttackTarget {
	ds := 0
	if m.Cfg.Variant == dote.Hist {
		ds = m.HistoryDim()
	}
	return &core.AttackTarget{
		Pipeline:    m.Pipeline(),
		InputDim:    m.InputDim(),
		DemandStart: ds,
		DemandLen:   m.NumPairs(),
		PS:          m.PS,
		MaxDemand:   m.PS.Graph.AvgLinkCapacity(),
	}
}

func TestRelativeGradientSearch(t *testing.T) {
	// Compare two differently initialized DOTE-Curr models: the search
	// should find inputs where A is measurably worse than B.
	a := trainedModel(t, dote.Curr, 1)
	ps := a.PS
	cfgB := dote.DefaultConfig(dote.Curr)
	cfgB.Hidden = []int{16}
	cfgB.Seed = 99
	b := dote.New(ps, cfgB)
	gen := traffic.NewGravity(ps, 0.3, rng.New(32))
	opts := dote.DefaultTrainOptions()
	opts.Epochs = 8
	opts.LR = 3e-3
	if _, err := dote.Train(b, traffic.CurrWindows(traffic.Sequence(gen, 40)), opts); err != nil {
		t.Fatal(err)
	}
	rt := core.NewRelativeTarget(a.Pipeline(), b.Pipeline(), targetFor(a))
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 120
	cfg.Restarts = 2
	res, err := core.RelativeGradientSearch(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("relative search found nothing")
	}
	// The reported input must reproduce the reported ratio.
	ratio, _, _ := rt.Ratio(res.BestX)
	if math.Abs(ratio-res.BestRatio) > 1e-9 {
		t.Fatalf("BestX reproduces %v, reported %v", ratio, res.BestRatio)
	}
	if res.BestRatio < 1 {
		t.Fatalf("relative ratio %v should exceed 1 for distinct models", res.BestRatio)
	}
}

func TestRelativeSearchValidation(t *testing.T) {
	m := trainedModel(t, dote.Curr, 1)
	rt := core.NewRelativeTarget(nil, m.Pipeline(), targetFor(m))
	if _, err := core.RelativeGradientSearch(rt, core.DefaultGradientConfig()); err == nil {
		t.Fatal("accepted nil system")
	}
	rt2 := core.NewRelativeTarget(m.Pipeline(), m.Pipeline(), targetFor(m))
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 0
	if _, err := core.RelativeGradientSearch(rt2, cfg); err == nil {
		t.Fatal("accepted zero iterations")
	}
}

func TestL1Constraint(t *testing.T) {
	c := &core.L1Constraint{Budget: 5}
	v, g := c.Violation([]float64{1, 2, 1})
	if v != 0 {
		t.Fatalf("within budget but violation %v", v)
	}
	for _, gi := range g {
		if gi != 0 {
			t.Fatal("gradient should vanish when satisfied")
		}
	}
	v, g = c.Violation([]float64{4, 4, 0})
	if math.Abs(v-3) > 1e-12 {
		t.Fatalf("violation = %v, want 3", v)
	}
	if g[0] != 1 || g[2] != 1 {
		t.Fatalf("gradient = %v", g)
	}
	if c.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestSparsityConstraint(t *testing.T) {
	c := &core.SparsityConstraint{MaxActive: 2}
	// Only entries beyond the 2 largest count as violation mass.
	v, g := c.Violation([]float64{10, 8, 3, 1})
	if math.Abs(v-4) > 1e-12 {
		t.Fatalf("violation = %v, want 4 (3+1)", v)
	}
	if g[0] != 0 || g[1] != 0 || g[2] != 1 || g[3] != 1 {
		t.Fatalf("gradient = %v", g)
	}
	// MaxActive >= n: always satisfied.
	c2 := &core.SparsityConstraint{MaxActive: 10}
	if v, _ := c2.Violation([]float64{1, 2}); v != 0 {
		t.Fatal("over-wide sparsity should be satisfied")
	}
}

func TestReferenceBallConstraint(t *testing.T) {
	c := &core.ReferenceBallConstraint{Reference: []float64{0, 0}, Radius: 5}
	if v, _ := c.Violation([]float64{3, 4}); v != 0 {
		t.Fatalf("point on radius should satisfy, got %v", v)
	}
	v, g := c.Violation([]float64{6, 8})
	if math.Abs(v-5) > 1e-12 {
		t.Fatalf("violation = %v, want 5", v)
	}
	if math.Abs(g[0]-0.6) > 1e-12 || math.Abs(g[1]-0.8) > 1e-12 {
		t.Fatalf("gradient = %v, want unit direction", g)
	}
}

func TestConstrainedSearchRespectsBudget(t *testing.T) {
	m := trainedModel(t, dote.Curr, 1)
	tg := targetFor(m)
	budget := tg.MaxDemand * 1.5 // well below what unconstrained search uses
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 150
	cfg.Restarts = 2
	cfg.Constraints = []core.InputConstraint{&core.L1Constraint{Budget: budget}}
	res, err := core.GradientSearch(tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("constrained search found nothing at this scale")
	}
	total := 0.0
	for _, v := range res.BestX {
		total += v
	}
	// The multiplier method enforces the budget softly; allow modest slack.
	if total > budget*1.5 {
		t.Fatalf("constrained search ignored the volume budget: %v >> %v", total, budget)
	}
}

func TestPartitionedSearch(t *testing.T) {
	m := trainedModel(t, dote.Curr, 1)
	tg := targetFor(m)
	res, reports, err := core.PartitionedSearch(tg, core.DefaultPartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("stage reports = %d, want 4 (mlu, routing, post-processor, dnn)", len(reports))
	}
	// Backward order: the first report is the LAST stage.
	if reports[0].Stage != "mlu" {
		t.Fatalf("first analyzed stage = %q, want mlu", reports[0].Stage)
	}
	if reports[len(reports)-1].Stage != "dnn" {
		t.Fatalf("last analyzed stage = %q, want dnn", reports[len(reports)-1].Stage)
	}
	// The final input must be inside the box and reproduce its ratio.
	for _, v := range res.BestX {
		if v < -1e-9 || v > tg.MaxDemand+1e-9 {
			t.Fatalf("partitioned input escaped the box: %v", v)
		}
	}
	ratio, _, _, err := tg.Ratio(res.BestX)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-res.BestRatio) > 1e-9 {
		t.Fatalf("ratio mismatch: %v vs %v", ratio, res.BestRatio)
	}
}

// TestNonTETarget exercises the "Beyond learning-enabled systems" path: a
// target with no routing substrate, scored entirely by a RatioOverride.
func TestNonTETarget(t *testing.T) {
	// System: f(x) = ((x0-3)^2 + 1) / (x1^2 + 1); "optimal" = 1, so the
	// ratio equals f. Max over the box [0,5]^2 is at x0=0... f(0, 0)=10?
	// ((0-3)^2+1)/(0+1) = 10; also x0=5 gives 5. Global max ratio = 10.
	pipe := core.NewPipeline(&core.DiffFunc{
		ComponentName: "analytic",
		Fn: func(x []float64) []float64 {
			return []float64{((x[0]-3)*(x[0]-3) + 1) / (x[1]*x[1] + 1)}
		},
		VJPFn: func(x, ybar []float64) []float64 {
			den := x[1]*x[1] + 1
			num := (x[0]-3)*(x[0]-3) + 1
			return []float64{
				ybar[0] * 2 * (x[0] - 3) / den,
				ybar[0] * num * (-2 * x[1]) / (den * den),
			}
		},
	})
	tg := &core.AttackTarget{
		Pipeline:    pipe,
		InputDim:    2,
		DemandStart: 0,
		DemandLen:   2,
		MaxDemand:   5,
	}
	if err := tg.Validate(); err == nil {
		t.Fatal("nil PS without RatioOverride must be rejected")
	}
	tg.RatioOverride = func(x []float64) (float64, float64, float64, error) {
		v := pipe.EvalScalar(x)
		return v, v, 1, nil
	}
	if err := tg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 300
	cfg.Restarts = 4
	cfg.EvalEvery = 20
	cfg.Patience = 0
	res, err := core.GradientSearch(tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("found nothing on an analytic objective")
	}
	// The global max is 10 at (0, 0); gradient ascent from random starts
	// must get close.
	if res.BestRatio < 8 {
		t.Fatalf("best ratio %v, want near 10", res.BestRatio)
	}
}
