package dote

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/nn"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/te"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The total-flow objective of §4 ("Other TE Objectives") lives here, beside
// the tests that run it: instead of the MLU, the end-to-end performance
// function is the traffic the pipeline actually delivers under proportional
// shedding. Because total flow is not linear in the demands, the analyzer
// must sweep the feasibility target (sweepConstraintTarget) rather than rely
// on the MLU's normalization trick.

// DeliveredFlowValue computes, differentiably, the total delivered flow of
// routing `demand` with `splits`: each path's flow is scaled by
// 1/max(1, worst utilization along the path).
func (m *Model) DeliveredFlowValue(t *ad.Tape, demand, splits ad.Value) ad.Value {
	util := m.UtilizationValue(t, demand, splits)
	// Per-slot raw flow: demand[pair(slot)] * splits[slot].
	flows := elementwise(t, gather(demand, m.slotPair), splits,
		func(x, y float64) float64 { return x * y },
		func(x, y float64) float64 { return y },
		func(x, y float64) float64 { return x })
	// Per-slot worst utilization via a flattened gather + segment max over
	// the slot→edge incidence.
	var flat []int
	offsets := make([]int, len(m.slotEdges))
	lens := make([]int, len(m.slotEdges))
	for slot, edges := range m.slotEdges {
		offsets[slot] = len(flat)
		lens[slot] = len(edges)
		flat = append(flat, edges...)
	}
	slotUtil := ad.SegmentMax(gather(util, flat), offsets, lens)
	// max(u, 1) = relu(u - 1) + 1 (smooth enough; subgradient at the kink).
	shed := ad.AddConst(ad.ReLU(ad.AddConst(slotUtil, -1)), 1)
	return ad.Sum(elementwise(t, flows, shed,
		func(x, y float64) float64 { return x / y },
		func(x, y float64) float64 { return 1 / y },
		func(x, y float64) float64 { return -x / (y * y) }))
}

// gather returns x[indices] as a concatenation of one-element slices.
func gather(x ad.Value, indices []int) ad.Value {
	parts := make([]ad.Value, len(indices))
	for i, j := range indices {
		parts[i] = ad.Slice(x, j, j+1)
	}
	return ad.Concat(parts...)
}

// elementwise records out = f(a, b) as a custom tape op with partials da
// and db.
func elementwise(t *ad.Tape, a, b ad.Value, f, da, db func(x, y float64) float64) ad.Value {
	return ad.Custom(t, []ad.Value{a, b}, a.Rows(), a.Cols(),
		func(in [][]float64, out []float64) {
			for i := range out {
				out[i] = f(in[0][i], in[1][i])
			}
		},
		func(in [][]float64, _, gout []float64, gin [][]float64) {
			for i, g := range gout {
				x, y := in[0][i], in[1][i]
				if gin[0] != nil {
					gin[0][i] += g * da(x, y)
				}
				if gin[1] != nil {
					gin[1][i] += g * db(x, y)
				}
			}
		})
}

// deliveredStage maps [splits | demand] -> [-delivered]: negative so the
// analyzer's ascent direction REDUCES the delivered traffic.
type deliveredStage struct{ m *Model }

// Name implements core.Component.
func (s *deliveredStage) Name() string { return "delivered-flow" }

func (s *deliveredStage) run(x []float64, ybar []float64) ([]float64, []float64) {
	m := s.m
	t := ad.GetTape()
	defer ad.PutTape(t)
	splits := t.Var(x[:m.TotalPaths()])
	demand := t.Var(x[m.TotalPaths():])
	delivered := ad.Neg(m.DeliveredFlowValue(t, demand, splits))
	out := []float64{delivered.ScalarValue()}
	if ybar == nil {
		return out, nil
	}
	ad.BackwardVJP(delivered, ybar)
	grad := make([]float64, len(x))
	copy(grad, splits.Grad())
	copy(grad[m.TotalPaths():], demand.Grad())
	return out, grad
}

// Forward implements core.Component.
func (s *deliveredStage) Forward(x []float64) []float64 {
	out, _ := s.run(x, nil)
	return out
}

// VJP implements core.Differentiable.
func (s *deliveredStage) VJP(x, ybar []float64) []float64 {
	_, grad := s.run(x, ybar)
	return grad
}

// FlowPipeline returns the pipeline whose scalar output is the NEGATED
// delivered flow — the quantity the analyzer maximizes to find demands the
// system serves badly.
func (m *Model) FlowPipeline() *core.Pipeline {
	return core.NewPipeline(
		&dnnStage{m},
		&postprocStage{m},
		&deliveredStage{m},
	)
}

// DeliveredFlow runs the full pipeline on a search-space input and returns
// the delivered traffic volume.
func (m *Model) DeliveredFlow(x []float64) float64 {
	history, demand := m.SplitInput(x)
	splits := m.Splits(history)
	return te.DeliveredFlow(m.PS, te.TrafficMatrix(demand), splits)
}

// FlowAttackTarget builds an AttackTarget for the total-flow objective: the
// search ascends the negated delivered flow, and inputs are scored by
// OptimalFlow(d) / Delivered(d) (how much traffic the optimal could have
// delivered versus what the learned system actually delivered).
func (m *Model) FlowAttackTarget() *core.AttackTarget {
	demandStart := 0
	if m.Cfg.Variant == Hist {
		demandStart = m.HistoryDim()
	}
	t := &core.AttackTarget{
		Pipeline:    m.FlowPipeline(),
		InputDim:    m.InputDim(),
		DemandStart: demandStart,
		DemandLen:   m.NumPairs(),
		PS:          m.PS,
		MaxDemand:   m.PS.Graph.AvgLinkCapacity(),
	}
	t.RatioOverride = func(x []float64) (float64, float64, float64, error) {
		_, demand := m.SplitInput(x)
		tm := te.TrafficMatrix(demand)
		if tm.Total() == 0 {
			return 1, 0, 0, nil
		}
		delivered := m.DeliveredFlow(x)
		optFlow, err := maxTotalFlow(m.PS, tm)
		if err != nil {
			return 0, 0, 0, err
		}
		if delivered <= 1e-9 {
			if optFlow <= 1e-9 {
				return 1, delivered, optFlow, nil
			}
			return optFlow / 1e-9, delivered, optFlow, nil
		}
		return optFlow / delivered, delivered, optFlow, nil
	}
	return t
}

// maxTotalFlow solves the maximum total routed flow LP of §4 ("Other TE
// Objectives"): each pair may route at most its demand, links respect
// capacity, and the objective is the total routed volume.
func maxTotalFlow(ps *paths.PathSet, tm te.TrafficMatrix) (float64, error) {
	g := ps.Graph
	off, total := ps.Offsets()
	p := lp.NewProblem()
	fs := make([]lp.VarID, total)
	obj := lp.NewExpr()
	for i, pp := range ps.PairPaths {
		if tm[i] == 0 || len(pp) == 0 {
			continue
		}
		capExpr := lp.NewExpr()
		for k := range pp {
			fs[off[i]+k] = p.AddVariable("", 0, math.Inf(1))
			capExpr.Add(1, fs[off[i]+k])
			obj.Add(1, fs[off[i]+k])
		}
		p.AddConstraint("", capExpr, lp.LE, tm[i])
	}
	for e := 0; e < g.NumEdges(); e++ {
		expr := lp.NewExpr()
		any := false
		for i, pp := range ps.PairPaths {
			if tm[i] == 0 {
				continue
			}
			for k, path := range pp {
				for _, eid := range path.Edges {
					if eid == e {
						expr.Add(1, fs[off[i]+k])
						any = true
						break
					}
				}
			}
		}
		if any {
			p.AddConstraint("", expr, lp.LE, g.Edge(e).Capacity)
		}
	}
	p.SetObjective(lp.Maximize, obj)
	sol := p.Solve()
	if sol.Status != lp.StatusOptimal {
		return 0, &te.StatusError{Op: "max total flow", Status: sol.Status}
	}
	return sol.Objective, nil
}

// sweepResult pairs a constraint target with its search outcome.
type sweepResult struct {
	ConstraintTarget float64
	Result           *core.SearchResult
}

// sweepConstraintTarget implements the P-sweep of §4 ("Other TE
// Objectives"): for objectives without the MLU's scale-linearity, the
// feasible space {d | OPT(d, f) = P} must be explored for several values of
// P. Each target value runs a full gradient search; the best overall result
// and all per-target outcomes are returned. The method is fast, so running
// it multiple times is cheap — the argument the paper makes.
func sweepConstraintTarget(target *core.AttackTarget, cfg core.GradientConfig, values []float64) (*core.SearchResult, []sweepResult, error) {
	if len(values) == 0 {
		return nil, nil, fmt.Errorf("dote: sweep needs at least one constraint target")
	}
	var best *core.SearchResult
	var all []sweepResult
	for _, v := range values {
		c := cfg
		c.ConstraintTarget = v
		res, err := core.GradientSearch(target, c)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, sweepResult{ConstraintTarget: v, Result: res})
		if best == nil || (res.Found && res.BestRatio > best.BestRatio) {
			best = res
		}
	}
	return best, all, nil
}

// trainedCurrModel returns a briefly trained DOTE-Curr model on the
// triangle.
func trainedCurrModel(t *testing.T) *Model {
	t.Helper()
	ps := paths.NewPathSet(topology.Triangle(), 2)
	cfg := DefaultConfig(Curr)
	cfg.Hidden = []int{16}
	m := New(ps, cfg)
	gen := traffic.NewGravity(ps, 0.3, rng.New(31))
	opts := DefaultTrainOptions()
	opts.Epochs = 8
	opts.LR = 3e-3
	if _, err := Train(m, traffic.CurrWindows(traffic.Sequence(gen, 40)), opts); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeliveredFlowValueMatchesTE(t *testing.T) {
	m := smallModel(t, Hist)
	r := rng.New(1)
	for trial := 0; trial < 8; trial++ {
		dem := make([]float64, m.NumPairs())
		for i := range dem {
			dem[i] = r.Float64() * 150 // may oversubscribe
		}
		splits := te.UniformSplits(m.PS)
		c := nn.NewCtx(false)
		d := c.T.Const(dem)
		s := c.T.Const(splits)
		got := m.DeliveredFlowValue(c.T, d, s).ScalarValue()
		want := te.DeliveredFlow(m.PS, te.TrafficMatrix(dem), splits)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: DeliveredFlowValue = %v, te.DeliveredFlow = %v", trial, got, want)
		}
	}
}

func TestDeliveredFlowProperties(t *testing.T) {
	m := smallModel(t, Curr)
	r := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		dem := make(te.TrafficMatrix, m.NumPairs())
		for i := range dem {
			dem[i] = r.Float64() * 80
		}
		splits := te.UniformSplits(m.PS)
		delivered := te.DeliveredFlow(m.PS, dem, splits)
		if delivered > dem.Total()+1e-9 {
			t.Fatalf("delivered %v exceeds offered %v", delivered, dem.Total())
		}
		mlu, _ := te.MLU(m.PS, dem, splits)
		if mlu <= 1 && math.Abs(delivered-dem.Total()) > 1e-9*(1+dem.Total()) {
			t.Fatalf("no congestion (MLU %v) but delivered %v != offered %v", mlu, delivered, dem.Total())
		}
	}
}

func TestFlowPipelineGradientNumeric(t *testing.T) {
	m := smallModel(t, Curr)
	p := m.FlowPipeline()
	r := rng.New(3)
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = 30 + r.Float64()*80
	}
	grad := p.Grad(x)
	const h = 1e-4
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		fp := p.EvalScalar(x)
		x[i] = orig - h
		fm := p.EvalScalar(x)
		x[i] = orig
		num := (fp - fm) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("flow grad[%d] = %v, numeric %v", i, grad[i], num)
		}
	}
}

func TestFlowPipelineMatchesDeliveredFlow(t *testing.T) {
	m := smallModel(t, Curr)
	p := m.FlowPipeline()
	r := rng.New(4)
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = r.Float64() * 120
	}
	if got, want := -p.EvalScalar(x), m.DeliveredFlow(x); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("pipeline -output %v != DeliveredFlow %v", got, want)
	}
}

func TestFlowAttackTargetRatio(t *testing.T) {
	m := smallModel(t, Curr)
	tg := m.FlowAttackTarget()
	if err := tg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	x := make([]float64, m.InputDim())
	for i := range x {
		x[i] = r.Float64() * 100
	}
	ratio, delivered, optFlow, err := tg.Ratio(x)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1-1e-6 {
		t.Fatalf("flow ratio %v < 1: the optimal cannot deliver less than the system", ratio)
	}
	if delivered > optFlow+1e-6 {
		t.Fatalf("delivered %v exceeds optimal %v", delivered, optFlow)
	}
	// Zero demand: ratio 1 by convention.
	zero := make([]float64, m.InputDim())
	zr, _, _, err := tg.Ratio(zero)
	if err != nil || zr != 1 {
		t.Fatalf("zero-demand flow ratio = %v (%v)", zr, err)
	}
}

func TestModelString(t *testing.T) {
	m := smallModel(t, Curr)
	if m.String() == "" {
		t.Fatal("empty model string")
	}
}

func TestMaxTotalFlow(t *testing.T) {
	ps := paths.NewPathSet(topology.Triangle(), 4)
	g := ps.Graph
	// Figure 3's demands: 1->2 = 100, 1->3 = 100.
	tm := make(te.TrafficMatrix, ps.NumPairs())
	tm[ps.PairIndex(g.NodeIndex("1"), g.NodeIndex("2"))] = 100
	tm[ps.PairIndex(g.NodeIndex("1"), g.NodeIndex("3"))] = 100
	flow, err := maxTotalFlow(ps, tm)
	if err != nil {
		t.Fatal(err)
	}
	// All 200 units are routable (optimal MLU is 1).
	if math.Abs(flow-200) > 1e-5 {
		t.Fatalf("max total flow = %v, want 200", flow)
	}
	// Triple demands: only 200 can still leave node 1.
	for i := range tm {
		tm[i] *= 3
	}
	flow3, err := maxTotalFlow(ps, tm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flow3-200) > 1e-5 {
		t.Fatalf("max total flow under overload = %v, want 200", flow3)
	}
}

func TestSweepConstraintTarget(t *testing.T) {
	m := trainedCurrModel(t)
	tg := attackTargetFor(m, m.Pipeline())
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 60
	cfg.Restarts = 1
	best, all, err := sweepConstraintTarget(tg, cfg, []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("sweep results = %d, want 3", len(all))
	}
	if best == nil {
		t.Fatal("no best result")
	}
	for _, sr := range all {
		if sr.Result.Found && best.Found && sr.Result.BestRatio > best.BestRatio {
			t.Fatal("best is not the max over the sweep")
		}
	}
	if _, _, err := sweepConstraintTarget(tg, cfg, nil); err == nil {
		t.Fatal("accepted empty sweep")
	}
}

func TestFlowObjectiveSearch(t *testing.T) {
	// The §4 extension end to end: attack the total-flow objective with a
	// constraint-target sweep.
	m := trainedCurrModel(t)
	tg := m.FlowAttackTarget()
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 80
	cfg.Restarts = 2
	best, all, err := sweepConstraintTarget(tg, cfg, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || best == nil {
		t.Fatal("flow sweep shape wrong")
	}
	if best.Found && best.BestRatio < 1 {
		t.Fatalf("flow ratio %v < 1 is impossible", best.BestRatio)
	}
}
