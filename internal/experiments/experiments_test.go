package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dote"
)

// quickSetup prepares a scaled-down DOTE-Curr instance once per test run.
func quickSetup(t *testing.T, v dote.Variant) *Setup {
	t.Helper()
	opts := QuickSetup(v)
	opts.Hidden = []int{24}
	opts.TrainLen = 50
	opts.TestLen = 15
	opts.TrainEpochs = 6
	s, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPrepareCurr(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	if s.Model.Cfg.Variant != dote.Curr {
		t.Fatal("wrong variant")
	}
	if s.Target.DemandStart != 0 || s.Target.DemandLen != 110 {
		t.Fatalf("target demand slice wrong: %d+%d", s.Target.DemandStart, s.Target.DemandLen)
	}
	if err := s.Target.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.TrainEx) == 0 || len(s.TestEx) == 0 {
		t.Fatal("no examples")
	}
}

func TestPrepareHist(t *testing.T) {
	opts := QuickSetup(dote.Hist)
	opts.Hidden = []int{16}
	opts.TrainLen = 40
	opts.TestLen = 20
	opts.TrainEpochs = 3
	s, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Target.DemandStart != s.Model.HistoryDim() {
		t.Fatal("Hist demand slice must follow the history window")
	}
	if len(s.TrainEx) != 40-12 {
		t.Fatalf("train examples = %d, want 28", len(s.TrainEx))
	}
	for _, ex := range s.TrainEx {
		if len(ex.History) != s.Model.HistoryDim() {
			t.Fatal("bad history length")
		}
	}
}

func TestPrepareUnknownTopology(t *testing.T) {
	opts := QuickSetup(dote.Curr)
	opts.Topology = "nonexistent"
	if _, err := Prepare(opts); err == nil {
		t.Fatal("accepted unknown topology")
	}
}

func TestFigure3Rows(t *testing.T) {
	rows, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Figure 3 has %d routings, want 3", len(rows))
	}
	if math.Abs(rows[0].MLU-1) > 1e-9 || math.Abs(rows[1].MLU-1) > 1e-9 {
		t.Fatalf("routings A/B MLU = %v/%v, want 1/1", rows[0].MLU, rows[1].MLU)
	}
	if math.Abs(rows[2].MLU-2) > 1e-9 {
		t.Fatalf("routing C MLU = %v, want 2", rows[2].MLU)
	}
}

func TestRunComparisonShape(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	budgets := ComparisonBudgets{
		RandomEvals:   25,
		WhiteboxNodes: 5,
		WhiteboxTime:  10 * time.Second,
		Gradient: core.GradientConfig{
			Iters: 60, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
			LambdaInit: 1, Restarts: 2, EvalEvery: 10, Patience: 6,
		},
	}
	rows, err := RunComparison(s, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("comparison rows = %d, want 4", len(rows))
	}
	// Paper-shape assertions: the gradient method must find a gap at least
	// as large as the test-set max and a meaningful one in absolute terms.
	testRow, randRow, wbRow, gradRow := rows[0], rows[1], rows[2], rows[3]
	if !gradRow.Found {
		t.Fatal("gradient row not found")
	}
	if gradRow.Ratio < testRow.Ratio*0.99 {
		t.Fatalf("gradient ratio %v below test-set ratio %v", gradRow.Ratio, testRow.Ratio)
	}
	if gradRow.Ratio < 1.05 {
		t.Fatalf("gradient ratio %v too small to be meaningful", gradRow.Ratio)
	}
	if !randRow.Found {
		t.Fatal("random search should always report something")
	}
	// The white-box row typically reports nothing; when it reports, it must
	// render properly either way.
	_ = wbRow.FormatRatio()
	if testRow.FormatRatio() == "—" {
		t.Fatal("test row must always be found")
	}
}

func TestRunSensitivityShape(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	base := core.GradientConfig{
		Iters: 40, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
		LambdaInit: 1, Restarts: 1, EvalEvery: 10, Patience: 0,
	}
	rows, err := RunSensitivity(s, []float64{0.01, 0.05}, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("sensitivity rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 1 {
			t.Fatalf("alpha %v found ratio %v < 1", r.AlphaL, r.Ratio)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 60
	cfg.Restarts = 2
	res, err := core.GradientSearch(s.Target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("no adversarial input found in short search")
	}
	data := Figure5(s, res.BestX)
	if len(data.Thresholds) != len(data.Training) || len(data.Thresholds) != len(data.Adversarial) {
		t.Fatal("Figure 5 series misaligned")
	}
	// CDFs monotone.
	for i := 1; i < len(data.Thresholds); i++ {
		if data.Training[i] < data.Training[i-1] || data.Adversarial[i] < data.Adversarial[i-1] {
			t.Fatal("CDFs not monotone")
		}
	}
	// The training distribution should concentrate mass at small demands
	// (most pairs exchange little traffic).
	if data.Training[2] < 0.5 {
		t.Fatalf("training CDF at 0.1 = %v; gravity data should be mostly small", data.Training[2])
	}
}

func TestAblations(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	base := core.GradientConfig{
		Iters: 30, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
		LambdaInit: 1, Restarts: 1, EvalEvery: 10, Patience: 0,
	}
	tRows, err := AblationInnerSteps(s, []int{1, 3}, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(tRows) != 2 || tRows[1].GradEvals <= tRows[0].GradEvals {
		t.Fatalf("T ablation should cost more gradients at higher T: %+v", tRows)
	}
	rRows, err := AblationRestarts(s, []int{1, 2}, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rRows) != 2 {
		t.Fatal("restart ablation shape wrong")
	}
	oRows, err := AblationObjective(s, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(oRows) != 2 || oRows[0].Config != "lagrangian" {
		t.Fatalf("objective ablation shape wrong: %+v", oRows)
	}
	pRows := AblationParallelism(s, []int{1, 2}, 8)
	if len(pRows) != 2 || pRows[0].Throughput <= 0 {
		t.Fatalf("parallelism ablation broken: %+v", pRows)
	}
}

func TestSaveLoadSetupRoundTrip(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	var buf bytes.Buffer
	if err := SaveSetup(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadSetup(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same topology/path set shape.
	if s2.Target.InputDim != s.Target.InputDim || s2.PS.NumPairs() != s.PS.NumPairs() {
		t.Fatal("round trip changed shape")
	}
	// Same trained weights: identical splits on identical input.
	h := s.TestEx[0].History
	a := s.Model.Splits(h)
	b := s2.Model.Splits(h)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("round trip changed weights")
		}
	}
	// Same deterministic traffic.
	if len(s2.TrainEx) != len(s.TrainEx) {
		t.Fatal("round trip changed training data")
	}
	for i := range s.TrainEx[0].Next {
		if s2.TrainEx[0].Next[i] != s.TrainEx[0].Next[i] {
			t.Fatal("round trip changed traffic")
		}
	}
}

// TestSaveLoadSetupThroughFile round-trips through a real file. Unlike
// bytes.Buffer, *os.File does not implement io.ByteReader, which historically
// made gob's header decoder buffer past the header and corrupt the weight
// stream for the second decoder — every file-based -setup load failed while
// the in-memory round-trip test stayed green.
func TestSaveLoadSetupThroughFile(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	path := filepath.Join(t.TempDir(), "setup.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSetup(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	s2, err := LoadSetup(g)
	if err != nil {
		t.Fatalf("file-based LoadSetup: %v", err)
	}
	h := s.TestEx[0].History
	a, b := s.Model.Splits(h), s2.Model.Splits(h)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("file round trip changed weights")
		}
	}
}

func TestLoadSetupRejectsGarbage(t *testing.T) {
	if _, err := LoadSetup(strings.NewReader("garbage")); err == nil {
		t.Fatal("accepted garbage checkpoint")
	}
}

func TestRunComparisonExtended(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	budgets := ComparisonBudgets{
		RandomEvals:   15,
		WhiteboxNodes: 2,
		WhiteboxTime:  5 * time.Second,
		Gradient: core.GradientConfig{
			Iters: 30, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
			LambdaInit: 1, Restarts: 1, EvalEvery: 10,
		},
	}
	rows, err := RunComparisonExtended(s, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("extended rows = %d, want 6", len(rows))
	}
	if rows[len(rows)-1].Method != "Gradient-based (ours)" {
		t.Fatalf("gradient row must be last, got %q", rows[len(rows)-1].Method)
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Method] = true
	}
	if !names["Hill Climbing"] || !names["Simulated Annealing"] {
		t.Fatal("extended baselines missing")
	}
}

func TestShiftEvaluation(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	res, err := ShiftEvaluation(s, []int{0, 1, 2}, 0.6, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Normal.N == 0 || res.Shifted.N == 0 {
		t.Fatal("missing evaluations")
	}
	// Ratios are ratios: both must be >= 1. (Whether the shift is harder
	// than the test distribution depends on training quality, so the
	// qualitative fiber-cut claim is exercised at full scale by
	// cmd/tereport, not asserted here.)
	if res.Shifted.MeanRatio < 1-1e-6 || res.Normal.MeanRatio < 1-1e-6 {
		t.Fatalf("impossible ratios: %v / %v", res.Shifted.MeanRatio, res.Normal.MeanRatio)
	}
	if res.Shifted.MaxRatio < res.Shifted.MeanRatio {
		t.Fatal("inconsistent shifted stats")
	}
}

func TestAblationHistoryLength(t *testing.T) {
	base := QuickSetup(dote.Hist)
	base.Hidden = []int{12}
	base.TrainLen = 30
	base.TestLen = 5
	base.TrainEpochs = 3
	cfg := core.GradientConfig{
		Iters: 25, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
		LambdaInit: 1, Restarts: 1, EvalEvery: 5, Patience: 0,
	}
	rows, err := AblationHistoryLength(base, []int{2, 6}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("history ablation rows = %d", len(rows))
	}
	if rows[0].Config != "K=2" || rows[1].Config != "K=6" {
		t.Fatalf("labels wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.Found && r.Ratio < 1 {
			t.Fatalf("impossible ratio %v", r.Ratio)
		}
	}
}

func TestPrepareGeantTopology(t *testing.T) {
	opts := QuickSetup(dote.Curr)
	opts.Topology = "geant"
	opts.Hidden = []int{8}
	opts.TrainLen = 10
	opts.TestLen = 4
	opts.TrainEpochs = 1
	s, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Target.DemandLen != 22*21 {
		t.Fatalf("Geant demand pairs = %d, want 462", s.Target.DemandLen)
	}
}

func TestAblationMomentum(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	base := core.GradientConfig{
		Iters: 30, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
		LambdaInit: 1, Restarts: 1, EvalEvery: 10, Patience: 0,
	}
	rows, err := AblationMomentum(s, []float64{0, 0.9}, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("momentum rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Found && r.Ratio < 1 {
			t.Fatalf("impossible ratio %v", r.Ratio)
		}
	}
}

func TestRunTopologyScale(t *testing.T) {
	base := QuickSetup(dote.Curr)
	base.Hidden = []int{12}
	base.TrainLen = 20
	base.TestLen = 5
	base.TrainEpochs = 2
	cfg := core.GradientConfig{
		Iters: 20, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
		LambdaInit: 1, Restarts: 1, EvalEvery: 10, Patience: 0,
	}
	rows, err := RunTopologyScale(base, []string{"triangle", "abilene"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("scale rows = %d", len(rows))
	}
	if rows[0].Pairs != 6 || rows[1].Pairs != 110 {
		t.Fatalf("pair counts wrong: %+v", rows)
	}
}

func TestAblationEstimators(t *testing.T) {
	s := quickSetup(t, dote.Curr)
	base := core.GradientConfig{
		Iters: 15, T: 1, AlphaD: 0.01, AlphaF: 0.01, AlphaL: 0.01,
		LambdaInit: 1, Restarts: 1, EvalEvery: 5, Patience: 0,
	}
	rows, err := AblationGradientEstimator(s, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("estimator ablation rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Found && r.Ratio < 1 {
			t.Fatalf("estimator %s found impossible ratio %v", r.Config, r.Ratio)
		}
	}
	// The gray-box rows report their true-evaluation bill; the white-box
	// chain-rule row never touches the opaque stage.
	if rows[0].TrueEvals != -1 {
		t.Fatalf("exact row TrueEvals = %d, want -1", rows[0].TrueEvals)
	}
	for _, r := range rows[1:] {
		if r.TrueEvals <= 0 {
			t.Fatalf("estimator %s reported no true evals (%d)", r.Config, r.TrueEvals)
		}
	}
}

// TestLoadSetupTrafficMatchesPrepare pins the traffic step of a checkpoint
// load to the traffic Prepare generated for the same options, for both
// variants, and shows that LoadCheckpoint (the daemon's load) builds the
// same target without generating any traffic.
func TestLoadSetupTrafficMatchesPrepare(t *testing.T) {
	for _, v := range []dote.Variant{dote.Curr, dote.Hist} {
		opts := QuickSetup(v)
		opts.Hidden = []int{8}
		opts.HistLen = 4
		opts.TrainLen = 30
		opts.TestLen = 10
		opts.TrainEpochs = 1
		s, err := Prepare(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveSetup(&buf, s); err != nil {
			t.Fatal(err)
		}
		ckpt := buf.Bytes()
		s2, err := LoadSetup(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		if len(s.TrainEx) == 0 || len(s.TestEx) == 0 {
			t.Fatalf("%v: Prepare generated no traffic", v)
		}
		if !reflect.DeepEqual(s2.TrainEx, s.TrainEx) || !reflect.DeepEqual(s2.TestEx, s.TestEx) {
			t.Fatalf("%v: LoadSetup traffic differs from Prepare's", v)
		}
		s3, err := LoadCheckpoint(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		if s3.TrainEx != nil || s3.TestEx != nil {
			t.Fatalf("%v: LoadCheckpoint generated traffic", v)
		}
		if !reflect.DeepEqual(s3.PS.PairPaths, s.PS.PairPaths) || s3.Target.InputDim != s.Target.InputDim ||
			s3.Target.DemandStart != s.Target.DemandStart || s3.Target.MaxDemand != s.Target.MaxDemand {
			t.Fatalf("%v: LoadCheckpoint target differs from Prepare's", v)
		}
		x := make([]float64, s.Target.InputDim)
		for i := range x {
			x[i] = s.Target.MaxDemand * float64(i%7) / 7
		}
		if a, b := s.Target.Pipeline.EvalScalar(x), s3.Target.Pipeline.EvalScalar(x); a != b {
			t.Fatalf("%v: LoadCheckpoint pipeline gives %v, Prepare's %v", v, b, a)
		}
	}
}
