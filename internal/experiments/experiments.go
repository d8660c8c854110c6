// Package experiments wires the substrates together into the paper's
// evaluation (§5): it prepares trained DOTE pipelines on Abilene and runs
// the method comparison of Tables 1 and 2, the step-size sensitivity of
// Table 3, the routing example of Figure 3, and the demand-CDF comparison
// of Figure 5. Both cmd/tereport and the bench harness call into here, so
// the numbers in EXPERIMENTS.md regenerate from a single code path.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/obs"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/te"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/whitebox"
)

// SetupOptions configure an evaluation instance.
type SetupOptions struct {
	// Variant selects DOTE-Hist (Table 1) or DOTE-Curr (Table 2).
	Variant dote.Variant
	// Topology names the network ("abilene", "b4", "triangle").
	Topology string
	// K is the number of shortest paths per pair (§5 uses 4).
	K int
	// HistLen overrides the history window for DOTE-Hist (0 = variant
	// default of 12).
	HistLen int
	// Hidden are the DNN's hidden widths.
	Hidden []int
	// TrainLen / TestLen are the number of traffic epochs generated.
	TrainLen, TestLen int
	// TrainEpochs / TrainLR control DOTE training.
	TrainEpochs int
	TrainLR     float64
	// Seed drives everything.
	Seed uint64
	// Verbose, when non-nil, receives progress lines.
	Verbose func(string)
	// Obs, when non-nil, receives training telemetry (see
	// dote.TrainOptions.Obs). Nil adds no overhead.
	Obs *obs.Registry
}

// DefaultSetup mirrors §5 at a laptop-friendly scale.
func DefaultSetup(v dote.Variant) SetupOptions {
	return SetupOptions{
		Variant:     v,
		Topology:    "abilene",
		K:           4,
		Hidden:      []int{128, 128},
		TrainLen:    300,
		TestLen:     60,
		TrainEpochs: 25,
		TrainLR:     1e-3,
		Seed:        1,
	}
}

// QuickSetup is a scaled-down configuration for tests and benchmarks.
func QuickSetup(v dote.Variant) SetupOptions {
	s := DefaultSetup(v)
	s.Hidden = []int{48}
	s.TrainLen = 80
	s.TestLen = 20
	s.TrainEpochs = 10
	s.TrainLR = 3e-3
	return s
}

// Setup is a prepared evaluation instance: trained model, data, target.
type Setup struct {
	Opts    SetupOptions
	PS      *paths.PathSet
	Model   *dote.Model
	TrainEx []traffic.Example
	TestEx  []traffic.Example
	Target  *core.AttackTarget
}

func buildTopology(name string) (*topology.Graph, error) {
	switch name {
	case "abilene", "":
		return topology.Abilene(), nil
	case "b4":
		return topology.B4(), nil
	case "geant":
		return topology.Geant(), nil
	case "triangle":
		return topology.Triangle(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown topology %q", name)
	}
}

// prepareModel builds the topology, path set, untrained model and attack
// target: everything a search needs. It generates no traffic (see
// addTraffic) and does NOT train — LoadCheckpoint restores trained weights
// instead.
func prepareModel(opts SetupOptions) (*Setup, error) {
	g, err := buildTopology(opts.Topology)
	if err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		opts.K = 4
	}
	ps := paths.NewPathSet(g, opts.K)
	cfg := dote.DefaultConfig(opts.Variant)
	if len(opts.Hidden) > 0 {
		cfg.Hidden = opts.Hidden
	}
	if opts.HistLen > 0 && opts.Variant == dote.Hist {
		cfg.HistLen = opts.HistLen
	}
	cfg.Seed = opts.Seed
	m := dote.New(ps, cfg)

	demandStart := 0
	if opts.Variant == dote.Hist {
		demandStart = m.HistoryDim()
	}
	target := &core.AttackTarget{
		Pipeline:    m.Pipeline(),
		InputDim:    m.InputDim(),
		DemandStart: demandStart,
		DemandLen:   m.NumPairs(),
		PS:          ps,
		MaxDemand:   g.AvgLinkCapacity(),
	}
	return &Setup{Opts: opts, PS: ps, Model: m, Target: target}, nil
}

// addTraffic generates the setup's gravity train and test sequences from
// its own seed. The traffic stream has its own RNG, so it does not depend
// on when it is generated relative to the model.
func (s *Setup) addTraffic() {
	opts := s.Opts
	r := rng.New(opts.Seed + 100)
	gen := traffic.NewGravity(s.PS, 0.3, r)
	if opts.Variant == dote.Curr {
		s.TrainEx = traffic.CurrWindows(traffic.Sequence(gen, opts.TrainLen))
		s.TestEx = traffic.CurrWindows(traffic.Sequence(gen, opts.TestLen))
	} else {
		hist := s.Model.Cfg.HistLen
		s.TrainEx = traffic.Windows(traffic.Sequence(gen, opts.TrainLen), hist)
		s.TestEx = traffic.Windows(traffic.Sequence(gen, opts.TestLen+hist), hist)
	}
}

// Prepare builds the topology and path set, generates gravity traffic,
// trains the DOTE variant end to end, and wraps everything in an
// AttackTarget whose box bound is the average link capacity (§5).
func Prepare(opts SetupOptions) (*Setup, error) {
	s, err := prepareModel(opts)
	if err != nil {
		return nil, err
	}
	s.addTraffic()
	topts := dote.DefaultTrainOptions()
	if opts.TrainEpochs > 0 {
		topts.Epochs = opts.TrainEpochs
	}
	if opts.TrainLR > 0 {
		topts.LR = opts.TrainLR
	}
	topts.Seed = opts.Seed + 200
	topts.Verbose = opts.Verbose
	topts.Obs = opts.Obs
	if _, err := dote.Train(s.Model, s.TrainEx, topts); err != nil {
		return nil, err
	}
	return s, nil
}

// MethodRow is one row of Table 1 or Table 2.
type MethodRow struct {
	Method  string
	Ratio   float64
	Found   bool
	Runtime time.Duration
	Note    string
	// Telemetry is a compact metrics summary for instrumented methods
	// (currently the gradient row when ComparisonBudgets.Gradient.Obs is
	// set); empty otherwise.
	Telemetry string
}

// FormatRatio renders the ratio column, using "—" for not-found (the
// white-box rows of Tables 1 and 2).
func (r MethodRow) FormatRatio() string {
	if !r.Found {
		return "—"
	}
	return fmt.Sprintf("%.2fx", r.Ratio)
}

// ComparisonBudgets bound each method in the Table 1/2 comparison.
type ComparisonBudgets struct {
	// RandomEvals bounds random search; the paper's runs take ~25 s.
	RandomEvals int
	// WhiteboxNodes / WhiteboxTime bound the MetaOpt-style MILP (§5 gave it
	// six hours; it still found nothing).
	WhiteboxNodes int
	WhiteboxTime  time.Duration
	// Gradient search configuration.
	Gradient core.GradientConfig
}

// DefaultBudgets returns laptop-scale budgets with the paper's
// hyper-parameters (alpha = 0.01, T = 1).
func DefaultBudgets() ComparisonBudgets {
	return ComparisonBudgets{
		RandomEvals:   400,
		WhiteboxNodes: 200,
		WhiteboxTime:  60 * time.Second,
		Gradient:      core.DefaultGradientConfig(),
	}
}

// RunComparison produces the four rows of Table 1 (DOTE-Hist) or Table 2
// (DOTE-Curr): the model's test-set ratio, random search, the white-box
// baseline, and the gray-box gradient method.
func RunComparison(s *Setup, budgets ComparisonBudgets) ([]MethodRow, error) {
	var rows []MethodRow
	log := s.Opts.Verbose
	say := func(format string, args ...interface{}) {
		if log != nil {
			log(fmt.Sprintf(format, args...))
		}
	}

	// Row 1: the ratio DOTE's authors measured — on the test set.
	say("evaluating %s on its test set...", s.Model.Cfg.Variant)
	stats, err := dote.Evaluate(s.Model, s.TestEx)
	if err != nil {
		return nil, err
	}
	rows = append(rows, MethodRow{
		Method: fmt.Sprintf("%s's test set", s.Model.Cfg.Variant),
		Ratio:  stats.MaxRatio,
		Found:  true,
		Note:   fmt.Sprintf("mean %.3f over %d epochs", stats.MeanRatio, stats.N),
	})

	// Row 2: black-box random search.
	say("running random search (%d evals)...", budgets.RandomEvals)
	rs, err := search.Random(s.Target, search.Budget{MaxEvals: budgets.RandomEvals}, s.Opts.Seed+300)
	if err != nil {
		return nil, err
	}
	rows = append(rows, MethodRow{
		Method:  "Random Search",
		Ratio:   rs.BestRatio,
		Found:   rs.Found,
		Runtime: rs.TimeToBest,
		Note:    fmt.Sprintf("%d evals", rs.Evals),
	})

	// Row 3: MetaOpt-style white-box MILP.
	say("running white-box MILP (budget %d nodes / %v)...", budgets.WhiteboxNodes, budgets.WhiteboxTime)
	wb, err := whitebox.Attack(s.Model, s.Target.MaxDemand, whitebox.Options{
		MaxNodes: budgets.WhiteboxNodes,
		MaxTime:  budgets.WhiteboxTime,
	})
	if err != nil {
		return nil, err
	}
	wbFound := wb.Found && wb.BestRatio > 1.05
	rows = append(rows, MethodRow{
		Method:  "MetaOpt-style white-box",
		Ratio:   wb.BestRatio,
		Found:   wbFound,
		Runtime: wb.Elapsed,
		Note:    fmt.Sprintf("%d B&B nodes, budget exhausted", wb.Evals),
	})

	// Row 4: the gray-box gradient-based analyzer.
	say("running gradient-based search (%d iters x %d restarts)...",
		budgets.Gradient.Iters, budgets.Gradient.Restarts)
	gcfg := budgets.Gradient
	gcfg.Seed = s.Opts.Seed + 400
	gr, err := core.GradientSearch(s.Target, gcfg)
	if err != nil {
		return nil, err
	}
	gnote := fmt.Sprintf("%d grad evals, %d LP evals", gr.GradEvals, gr.LPEvals)
	if gr.FaultCount > 0 {
		gnote += fmt.Sprintf(", %d fault(s) contained", gr.FaultCount)
	}
	if gr.StopReason == core.StopDeadline || gr.StopReason == core.StopCancelled {
		gnote += fmt.Sprintf(", stopped early (%s)", gr.StopReason)
	}
	rows = append(rows, MethodRow{
		Method:    "Gradient-based (ours)",
		Ratio:     gr.BestRatio,
		Found:     gr.Found,
		Runtime:   gr.TimeToBest,
		Note:      gnote,
		Telemetry: summarizeTelemetry(gr.Telemetry),
	})
	return rows, nil
}

// summarizeTelemetry compresses a search's metrics snapshot into a one-cell
// report-table summary: LP solves and their pivot work are the numbers that
// explain where a search's runtime went.
func summarizeTelemetry(snap *obs.Snapshot) string {
	if snap == nil {
		return ""
	}
	return fmt.Sprintf("%d lp solves, %d pivots, %d improvement(s)",
		snap.Counters["lp.solves"],
		snap.Counters["lp.pivots"],
		snap.Counters["search.improvements"])
}

// RunComparisonExtended adds the other black-box local-search baselines
// (hill climbing, simulated annealing) to the Table 1/2 rows — the "local
// search methods get stuck in local optima" claim of §3.1 made measurable.
func RunComparisonExtended(s *Setup, budgets ComparisonBudgets) ([]MethodRow, error) {
	rows, err := RunComparison(s, budgets)
	if err != nil {
		return nil, err
	}
	hc, err := search.HillClimb(s.Target, search.Budget{MaxEvals: budgets.RandomEvals}, s.Opts.Seed+310)
	if err != nil {
		return nil, err
	}
	sa, err := search.Anneal(s.Target, search.Budget{MaxEvals: budgets.RandomEvals}, s.Opts.Seed+320)
	if err != nil {
		return nil, err
	}
	extra := []MethodRow{
		{Method: "Hill Climbing", Ratio: hc.BestRatio, Found: hc.Found, Runtime: hc.TimeToBest,
			Note: fmt.Sprintf("%d evals", hc.Evals)},
		{Method: "Simulated Annealing", Ratio: sa.BestRatio, Found: sa.Found, Runtime: sa.TimeToBest,
			Note: fmt.Sprintf("%d evals", sa.Evals)},
	}
	// Keep the gradient row last, as in the paper's tables.
	out := append(append([]MethodRow{}, rows[:len(rows)-1]...), extra...)
	out = append(out, rows[len(rows)-1])
	return out, nil
}

// SensRow is one row of Table 3.
type SensRow struct {
	AlphaL  float64
	Ratio   float64
	Runtime time.Duration
}

// RunSensitivity reproduces Table 3: vary the multiplier step size α_λ with
// α_d = α_f = 0.01 fixed.
func RunSensitivity(s *Setup, alphas []float64, base core.GradientConfig) ([]SensRow, error) {
	var rows []SensRow
	for _, a := range alphas {
		cfg := base
		cfg.AlphaD = 0.01
		cfg.AlphaF = 0.01
		cfg.AlphaL = a
		cfg.Seed = s.Opts.Seed + 500
		res, err := core.GradientSearch(s.Target, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensRow{AlphaL: a, Ratio: res.BestRatio, Runtime: res.TimeToBest})
	}
	return rows, nil
}

// ShiftResult compares a trained model's performance on its normal test
// distribution against post-shift traffic (a fiber-cut-style
// redistribution): the natural-world analogue of the adversarial inputs.
type ShiftResult struct {
	Normal, Shifted dote.EvalStats
}

// ShiftEvaluation evaluates the setup's model on shifted traffic where a
// fraction of all volume concentrates on a few hot pairs from epoch 0.
func ShiftEvaluation(s *Setup, hotPairs []int, fraction float64, epochs int) (*ShiftResult, error) {
	normal, err := dote.Evaluate(s.Model, s.TestEx)
	if err != nil {
		return nil, err
	}
	r := rng.New(s.Opts.Seed + 123)
	gen := &traffic.Shift{
		Inner:    traffic.NewGravity(s.PS, 0.3, r),
		At:       0,
		HotPairs: hotPairs,
		Fraction: fraction,
	}
	seq := traffic.Sequence(gen, epochs+s.Model.Cfg.HistLen)
	var ex []traffic.Example
	if s.Model.Cfg.Variant == dote.Curr {
		ex = traffic.CurrWindows(seq)
	} else {
		ex = traffic.Windows(seq, s.Model.Cfg.HistLen)
	}
	shifted, err := dote.Evaluate(s.Model, ex)
	if err != nil {
		return nil, err
	}
	return &ShiftResult{Normal: normal, Shifted: shifted}, nil
}

// RoutingRow is one column of Figure 3's table.
type RoutingRow struct {
	Name string
	MLU  float64
}

// Figure3 reproduces the motivating example: on the triangle topology with
// demands 1→2 = 1→3 = 100, routings A and B achieve MLU 1 with different
// split ratios, while routing C achieves MLU 2 — showing why split ratios
// alone (the DNN's output) do not determine end-to-end performance.
func Figure3() ([]RoutingRow, error) {
	g := topology.Triangle()
	ps := paths.NewPathSet(g, 4)
	tm := make(te.TrafficMatrix, ps.NumPairs())
	n1, n2, n3 := g.NodeIndex("1"), g.NodeIndex("2"), g.NodeIndex("3")
	tm[ps.PairIndex(n1, n2)] = 100
	tm[ps.PairIndex(n1, n3)] = 100

	route := func(assign map[int]int) te.Splits {
		s := te.ShortestPathSplits(ps)
		off, _ := ps.Offsets()
		for pair, pathIdx := range assign {
			for k := range ps.PairPaths[pair] {
				s[off[pair]+k] = 0
			}
			s[off[pair]+pathIdx] = 1
		}
		return s
	}
	findPath := func(pair int, nodes []int) int {
		for k, p := range ps.PairPaths[pair] {
			pn := p.Nodes(g)
			if len(pn) != len(nodes) {
				continue
			}
			ok := true
			for i := range pn {
				if pn[i] != nodes[i] {
					ok = false
					break
				}
			}
			if ok {
				return k
			}
		}
		return -1
	}
	p12, p13 := ps.PairIndex(n1, n2), ps.PairIndex(n1, n3)
	direct12 := findPath(p12, []int{n1, n2})
	via3 := findPath(p12, []int{n1, n3, n2})
	direct13 := findPath(p13, []int{n1, n3})
	via2 := findPath(p13, []int{n1, n2, n3})
	if direct12 < 0 || via3 < 0 || direct13 < 0 || via2 < 0 {
		return nil, fmt.Errorf("experiments: triangle path set incomplete")
	}

	var rows []RoutingRow
	for _, rc := range []struct {
		name   string
		assign map[int]int
	}{
		{"Routing A (direct)", map[int]int{p12: direct12, p13: direct13}},
		{"Routing B (swapped detours)", map[int]int{p12: via3, p13: via2}},
		{"Routing C (shared link)", map[int]int{p12: direct12, p13: via2}},
	} {
		mlu, _ := te.MLU(ps, tm, route(rc.assign))
		rows = append(rows, RoutingRow{Name: rc.name, MLU: mlu})
	}
	return rows, nil
}

// Figure5 compares the demand-size distribution of the adversarial input
// against training demands: the CDFs over demands normalized by the average
// link capacity, evaluated at the paper's x-axis points.
type Figure5Data struct {
	Thresholds  []float64
	Training    []float64
	Adversarial []float64
	// TopShareTraining / TopShareAdversarial report the fraction of total
	// volume carried by the 5 largest pairs — the concentration statistic
	// behind the paper's observation that "only a few pairs exchange the
	// majority of the traffic in the adversarial examples".
	TopShareTraining    float64
	TopShareAdversarial float64
}

// topKShare returns the fraction of total demand carried by the k largest
// entries (1 for a zero matrix).
func topKShare(tm te.TrafficMatrix, k int) float64 {
	total := tm.Total()
	if total == 0 {
		return 1
	}
	sorted := append([]float64{}, tm...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if k > len(sorted) {
		k = len(sorted)
	}
	top := 0.0
	for _, v := range sorted[:k] {
		top += v
	}
	return top / total
}

// Figure5 computes the CDF comparison for a discovered adversarial input.
func Figure5(s *Setup, advInput []float64) Figure5Data {
	thresholds := []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	scale := s.PS.Graph.AvgLinkCapacity()
	var trainTMs []te.TrafficMatrix
	trainShare := 0.0
	for _, ex := range s.TrainEx {
		trainTMs = append(trainTMs, ex.Next)
		trainShare += topKShare(ex.Next, 5)
	}
	if len(s.TrainEx) > 0 {
		trainShare /= float64(len(s.TrainEx))
	}
	adv := s.Target.Demand(advInput)
	return Figure5Data{
		Thresholds:          thresholds,
		Training:            traffic.CDF(trainTMs, scale, thresholds),
		Adversarial:         traffic.CDF([]te.TrafficMatrix{adv}, scale, thresholds),
		TopShareTraining:    trainShare,
		TopShareAdversarial: topKShare(adv, 5),
	}
}
