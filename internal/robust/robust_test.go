package robust

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func setup(t *testing.T) (*dote.Model, []traffic.Example, []traffic.Example, *core.AttackTarget) {
	t.Helper()
	ps := paths.NewPathSet(topology.Triangle(), 2)
	cfg := dote.DefaultConfig(dote.Curr)
	cfg.Hidden = []int{16}
	m := dote.New(ps, cfg)
	gen := traffic.NewGravity(ps, 0.3, rng.New(21))
	trainEx := traffic.CurrWindows(traffic.Sequence(gen, 50))
	testEx := traffic.CurrWindows(traffic.Sequence(gen, 15))
	opts := dote.DefaultTrainOptions()
	opts.Epochs = 8
	opts.LR = 3e-3
	if _, err := dote.Train(m, trainEx, opts); err != nil {
		t.Fatal(err)
	}
	tg := &core.AttackTarget{
		Pipeline:    m.Pipeline(),
		InputDim:    m.InputDim(),
		DemandStart: 0,
		DemandLen:   m.NumPairs(),
		PS:          ps,
		MaxDemand:   ps.Graph.AvgLinkCapacity(),
	}
	return m, trainEx, testEx, tg
}

func TestExamplesFromInputs(t *testing.T) {
	m, _, _, _ := setup(t)
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = float64(i)
	}
	exs := ExamplesFromInputs(m, [][]float64{x})
	if len(exs) != 1 {
		t.Fatal("wrong example count")
	}
	// For Curr: history == demand == x.
	for i := range x {
		if exs[0].History[i] != x[i] || exs[0].Next[i] != x[i] {
			t.Fatal("Curr example conversion wrong")
		}
	}
	// Mutating the example must not alias the input.
	exs[0].Next[0] = -1
	if x[0] == -1 {
		t.Fatal("example aliases the input")
	}
}

func TestExamplesFromInputsHist(t *testing.T) {
	ps := paths.NewPathSet(topology.Triangle(), 2)
	cfg := dote.DefaultConfig(dote.Hist)
	cfg.Hidden = []int{8}
	cfg.HistLen = 2
	m := dote.New(ps, cfg)
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = float64(i + 1)
	}
	exs := ExamplesFromInputs(m, [][]float64{x})
	if len(exs[0].History) != m.HistoryDim() || len(exs[0].Next) != m.NumPairs() {
		t.Fatal("Hist example shapes wrong")
	}
	if exs[0].Next[0] != x[m.HistoryDim()] {
		t.Fatal("Hist demand misaligned")
	}
}

func TestHardenReducesAdversarialGap(t *testing.T) {
	m, trainEx, testEx, tg := setup(t)
	// Find adversarial inputs with a short gradient search.
	scfg := core.DefaultGradientConfig()
	scfg.Iters = 120
	scfg.Restarts = 2
	res, err := core.GradientSearch(tg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("no adversarial input found on this tiny model; nothing to harden")
	}
	opts := dote.DefaultTrainOptions()
	opts.Epochs = 10
	opts.LR = 2e-3
	out, err := Harden(m, trainEx, testEx, [][]float64{res.BestX}, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.BeforeAdv <= 0 || out.AfterAdv <= 0 {
		t.Fatalf("ratios missing: %+v", out)
	}
	// Hardening must improve (or at least not worsen much) the adversarial
	// ratio on the very inputs it trained on.
	if out.AfterAdv > out.BeforeAdv*1.05 {
		t.Fatalf("hardening made the adversarial gap worse: %v -> %v", out.BeforeAdv, out.AfterAdv)
	}
	// And the average case must stay reasonable.
	if out.AfterTest.MeanRatio > out.BeforeTest.MeanRatio*2 {
		t.Fatalf("hardening destroyed average-case performance: %v -> %v",
			out.BeforeTest.MeanRatio, out.AfterTest.MeanRatio)
	}
}

func TestHardenValidation(t *testing.T) {
	m, trainEx, testEx, _ := setup(t)
	if _, err := Harden(m, trainEx, testEx, nil, 1, dote.DefaultTrainOptions()); err == nil {
		t.Fatal("accepted empty adversarial set")
	}
}
