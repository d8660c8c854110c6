package dote

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/te"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// SystemMLU runs the entire pipeline on a search-space input and returns
// the resulting MLU through te.MLU: the reference the pipeline and Explain
// tests compare against.
func (m *Model) SystemMLU(x []float64) float64 {
	history, demand := m.SplitInput(x)
	splits := m.Splits(history)
	mlu, _ := te.MLU(m.PS, te.TrafficMatrix(demand), splits)
	return mlu
}

func smallModel(t *testing.T, v Variant) *Model {
	t.Helper()
	ps := paths.NewPathSet(topology.Triangle(), 2)
	cfg := DefaultConfig(v)
	cfg.Hidden = []int{16}
	if v == Hist {
		cfg.HistLen = 3
	}
	return New(ps, cfg)
}

func abileneModel(v Variant, hidden []int) *Model {
	ps := paths.NewPathSet(topology.Abilene(), 4)
	cfg := DefaultConfig(v)
	cfg.Hidden = hidden
	return New(ps, cfg)
}

func TestModelDims(t *testing.T) {
	mh := smallModel(t, Hist)
	// Triangle: 6 pairs, 2 paths each = 12 slots.
	if mh.TotalPaths() != 12 {
		t.Fatalf("TotalPaths = %d, want 12", mh.TotalPaths())
	}
	if mh.HistoryDim() != 3*6 {
		t.Fatalf("HistoryDim = %d, want 18", mh.HistoryDim())
	}
	if mh.InputDim() != 18+6 {
		t.Fatalf("Hist InputDim = %d, want 24", mh.InputDim())
	}
	mc := smallModel(t, Curr)
	if mc.InputDim() != 6 || mc.HistoryDim() != 6 {
		t.Fatalf("Curr dims wrong: input %d history %d", mc.InputDim(), mc.HistoryDim())
	}
	if mc.Cfg.HistLen != 1 {
		t.Fatal("Curr must force HistLen = 1")
	}
}

func TestSplitsAreValid(t *testing.T) {
	m := smallModel(t, Hist)
	r := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		h := make([]float64, m.HistoryDim())
		for i := range h {
			h[i] = r.Float64() * 100
		}
		s := m.Splits(h)
		if err := te.ValidateSplits(m.PS, s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestJoinSplitInputRoundTrip(t *testing.T) {
	m := smallModel(t, Hist)
	r := rng.New(2)
	hist := make([]float64, m.HistoryDim())
	dem := make(te.TrafficMatrix, m.NumPairs())
	for i := range hist {
		hist[i] = r.Float64()
	}
	for i := range dem {
		dem[i] = r.Float64()
	}
	x := m.JoinInput(hist, dem)
	h2, d2 := m.SplitInput(x)
	for i := range hist {
		if h2[i] != hist[i] {
			t.Fatal("history round trip failed")
		}
	}
	for i := range dem {
		if d2[i] != dem[i] {
			t.Fatal("demand round trip failed")
		}
	}
	mc := smallModel(t, Curr)
	xc := mc.JoinInput(dem, dem)
	hc, dc := mc.SplitInput(xc)
	for i := range dem {
		if hc[i] != dem[i] || dc[i] != dem[i] {
			t.Fatal("Curr input must be shared history/demand")
		}
	}
}

func TestSystemMLUMatchesTE(t *testing.T) {
	// Routing the splits externally through te must equal the pipeline MLU.
	m := smallModel(t, Hist)
	r := rng.New(3)
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = r.Float64() * 50
	}
	hist, dem := m.SplitInput(x)
	splits := m.Splits(hist)
	want, _ := te.MLU(m.PS, te.TrafficMatrix(dem), splits)
	got := m.SystemMLU(x)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("SystemMLU = %v, te.MLU = %v", got, want)
	}
}

func TestPipelineForwardMatchesSystemMLU(t *testing.T) {
	for _, v := range []Variant{Hist, Curr} {
		m := smallModel(t, v)
		p := m.Pipeline()
		r := rng.New(4)
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, m.InputDim())
			for i := range x {
				x[i] = r.Float64() * 80
			}
			if got, want := p.EvalScalar(x), m.SystemMLU(x); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v: pipeline %v, SystemMLU %v", v, got, want)
			}
		}
	}
}

func TestOpaquePipelineMatches(t *testing.T) {
	m := smallModel(t, Curr)
	p := m.OpaqueRoutingPipeline()
	r := rng.New(5)
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = 10 + r.Float64()*50
	}
	if got, want := p.EvalScalar(x), m.SystemMLU(x); math.Abs(got-want) > 1e-9 {
		t.Fatalf("opaque pipeline %v, SystemMLU %v", got, want)
	}
}

// TestPipelineGradientNumeric validates the full chain-rule gradient of the
// end-to-end system against central differences — the heart of §3.2.
func TestPipelineGradientNumeric(t *testing.T) {
	for _, v := range []Variant{Hist, Curr} {
		m := smallModel(t, v)
		p := m.Pipeline()
		r := rng.New(6)
		x := make([]float64, m.InputDim())
		for i := range x {
			x[i] = 20 + r.Float64()*40
		}
		grad := p.Grad(x)
		const h = 1e-4
		for i := 0; i < len(x); i++ {
			orig := x[i]
			x[i] = orig + h
			fp := p.EvalScalar(x)
			x[i] = orig - h
			fm := p.EvalScalar(x)
			x[i] = orig
			num := (fp - fm) / (2 * h)
			if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%v: grad[%d] = %v, numeric %v", v, i, grad[i], num)
			}
		}
	}
}

// TestGrayboxedGradientClose checks the finite-difference treatment of the
// opaque routing stage approximates the exact chain-rule gradient.
func TestGrayboxedGradientClose(t *testing.T) {
	m := smallModel(t, Curr)
	exact := m.Pipeline()
	gray := m.OpaqueRoutingPipeline().Grayboxed(1e-5)
	r := rng.New(7)
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = 20 + r.Float64()*40
	}
	ge := exact.Grad(x)
	gg := gray.Grad(x)
	for i := range ge {
		if math.Abs(ge[i]-gg[i]) > 1e-3*(1+math.Abs(ge[i])) {
			t.Fatalf("grad[%d]: exact %v, gray %v", i, ge[i], gg[i])
		}
	}
}

func TestVJPNotImplementedPanics(t *testing.T) {
	m := smallModel(t, Curr)
	p := m.OpaqueRoutingPipeline() // NOT grayboxed
	defer func() {
		if recover() == nil {
			t.Fatal("VJP through an opaque stage must panic with guidance")
		}
	}()
	x := make([]float64, m.InputDim())
	p.Grad(x)
}

func TestTrainingReducesLoss(t *testing.T) {
	m := abileneModel(Curr, []int{32})
	r := rng.New(8)
	gen := traffic.NewGravity(m.PS, 0.3, r)
	seq := traffic.Sequence(gen, 60)
	examples := traffic.CurrWindows(seq)
	opts := DefaultTrainOptions()
	opts.Epochs = 8
	opts.LR = 3e-3
	res, err := Train(m, examples, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Fatalf("training did not reduce loss: %v -> %v", first, last)
	}
	if last < 1-1e-6 {
		t.Fatalf("loss %v below 1: ratio can never beat the optimal", last)
	}
}

func TestEvaluateAfterTraining(t *testing.T) {
	m := abileneModel(Curr, []int{32})
	r := rng.New(9)
	gen := traffic.NewGravity(m.PS, 0.3, r)
	train := traffic.CurrWindows(traffic.Sequence(gen, 80))
	test := traffic.CurrWindows(traffic.Sequence(gen, 20))
	opts := DefaultTrainOptions()
	opts.Epochs = 12
	opts.LR = 3e-3
	if _, err := Train(m, train, opts); err != nil {
		t.Fatal(err)
	}
	stats, err := Evaluate(m, test)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MeanRatio < 1-1e-6 {
		t.Fatalf("mean ratio %v below 1 is impossible", stats.MeanRatio)
	}
	if stats.MeanRatio > 2.5 {
		t.Fatalf("mean test ratio %v: training failed to generalize on in-distribution data", stats.MeanRatio)
	}
	if stats.MaxRatio < stats.MeanRatio || stats.P95Ratio < stats.MeanRatio*0.5 {
		t.Fatalf("inconsistent stats: %+v", stats)
	}
	if stats.N != len(test) {
		t.Fatalf("N = %d, want %d", stats.N, len(test))
	}
}

func TestTrainEarlyStopping(t *testing.T) {
	m := abileneModel(Curr, []int{32})
	gen := traffic.NewGravity(m.PS, 0.3, rng.New(14))
	examples := traffic.CurrWindows(traffic.Sequence(gen, 60))
	opts := DefaultTrainOptions()
	opts.Epochs = 50
	opts.LR = 5e-3
	opts.ValFraction = 0.25
	opts.Patience = 2
	res, err := Train(m, examples, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValLoss) != len(res.EpochLoss) {
		t.Fatalf("val loss per epoch missing: %d vs %d", len(res.ValLoss), len(res.EpochLoss))
	}
	if !res.StoppedEarly && len(res.EpochLoss) == opts.Epochs {
		// Either outcome is possible on a lucky run, but with patience 2
		// and 50 epochs, stopping is overwhelmingly likely; if it trained
		// to the end, validation must have kept improving.
		for i := 3; i < len(res.ValLoss); i++ {
			better := false
			for j := i - 2; j <= i; j++ {
				if res.ValLoss[j] < res.ValLoss[i-3] {
					better = true
				}
			}
			if !better {
				t.Fatal("patience should have triggered")
			}
		}
	}
	for _, v := range res.ValLoss {
		if v < 1-1e-6 {
			t.Fatalf("validation ratio %v below 1", v)
		}
	}
}

func TestTrainValSplitKeepsSemantics(t *testing.T) {
	// With a validation split, training still reduces the loss.
	m := abileneModel(Curr, []int{32})
	gen := traffic.NewGravity(m.PS, 0.3, rng.New(15))
	examples := traffic.CurrWindows(traffic.Sequence(gen, 60))
	opts := DefaultTrainOptions()
	opts.Epochs = 8
	opts.LR = 3e-3
	opts.ValFraction = 0.2
	res, err := Train(m, examples, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
		t.Fatal("training with a val split did not reduce loss")
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	m := smallModel(t, Curr)
	if _, err := Train(m, nil, DefaultTrainOptions()); err == nil {
		t.Fatal("Train accepted empty example set")
	}
}

func TestUtilizationValueMatchesLinkLoads(t *testing.T) {
	m := smallModel(t, Hist)
	r := rng.New(10)
	dem := make([]float64, m.NumPairs())
	for i := range dem {
		dem[i] = r.Float64() * 100
	}
	splits := te.UniformSplits(m.PS)
	c := nn.NewCtx(false)
	d := c.T.Const(dem)
	s := c.T.Const(splits)
	util := m.UtilizationValue(c.T, d, s)
	loads := te.LinkLoads(m.PS, te.TrafficMatrix(dem), splits)
	for i, l := range loads {
		if want := l / m.PS.Graph.Edge(i).Capacity; math.Abs(util.Data()[i]-want) > 1e-9 {
			t.Fatalf("utilization[%d] = %v, want %v", i, util.Data()[i], want)
		}
	}
}

func TestDefaultConfigs(t *testing.T) {
	h := DefaultConfig(Hist)
	if h.HistLen != 12 || h.Variant != Hist {
		t.Fatalf("bad Hist config: %+v", h)
	}
	c := DefaultConfig(Curr)
	if c.HistLen != 1 || c.Variant != Curr {
		t.Fatalf("bad Curr config: %+v", c)
	}
	if Hist.String() != "DOTE-Hist" || Curr.String() != "DOTE-Curr" {
		t.Fatal("variant names wrong")
	}
}

func TestPerformanceRatioAtLeastOne(t *testing.T) {
	m := smallModel(t, Curr)
	r := rng.New(11)
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, m.InputDim())
		for i := range x {
			x[i] = 1 + r.Float64()*50
		}
		ratio, sys, opt, err := m.PerformanceRatio(x)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 1-1e-6 {
			t.Fatalf("ratio %v < 1 (sys %v, opt %v): optimal cannot lose", ratio, sys, opt)
		}
	}
}

func TestParallelGradsMatchSequential(t *testing.T) {
	m := smallModel(t, Curr)
	p := m.Pipeline()
	r := rng.New(12)
	xs := make([][]float64, 8)
	for i := range xs {
		xs[i] = make([]float64, m.InputDim())
		for j := range xs[i] {
			xs[i][j] = 10 + r.Float64()*50
		}
	}
	par := core.ParallelGrads(p, xs, 4)
	for i, x := range xs {
		seq := p.Grad(x)
		for j := range seq {
			if math.Abs(seq[j]-par[i][j]) > 1e-12 {
				t.Fatalf("parallel grad differs at input %d dim %d", i, j)
			}
		}
	}
}
