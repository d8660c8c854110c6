package te

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Clone returns a deep copy.
func (tm TrafficMatrix) Clone() TrafficMatrix {
	c := make(TrafficMatrix, len(tm))
	copy(c, tm)
	return c
}

// Scale multiplies every demand by alpha in place and returns tm.
func (tm TrafficMatrix) Scale(alpha float64) TrafficMatrix {
	for i := range tm {
		tm[i] *= alpha
	}
	return tm
}

// Utilizations divides loads by capacities: the reference the incremental
// evaluator's probes are compared against.
func Utilizations(ps *paths.PathSet, loads []float64) []float64 {
	g := ps.Graph
	u := make([]float64, len(loads))
	for i := range loads {
		u[i] = loads[i] / g.Edge(i).Capacity
	}
	return u
}

func trianglePS() *paths.PathSet {
	return paths.NewPathSet(topology.Triangle(), 4)
}

func abilenePS() *paths.PathSet {
	return paths.NewPathSet(topology.Abilene(), 4)
}

// figure3TM returns the demand set of Figure 3: 1->2 = 100, 1->3 = 100.
func figure3TM(ps *paths.PathSet) TrafficMatrix {
	g := ps.Graph
	tm := make(TrafficMatrix, ps.NumPairs())
	tm[ps.PairIndex(g.NodeIndex("1"), g.NodeIndex("2"))] = 100
	tm[ps.PairIndex(g.NodeIndex("1"), g.NodeIndex("3"))] = 100
	return tm
}

// splitsFor builds a split vector that, for each listed pair, routes fully on
// the path whose node sequence matches.
func splitsFor(t *testing.T, ps *paths.PathSet, route map[[2]string][]string) Splits {
	t.Helper()
	g := ps.Graph
	s := ShortestPathSplits(ps)
	off, _ := ps.Offsets()
	for pair, wantNodes := range route {
		pi := ps.PairIndex(g.NodeIndex(pair[0]), g.NodeIndex(pair[1]))
		if pi < 0 {
			t.Fatalf("unknown pair %v", pair)
		}
		found := -1
		for k, p := range ps.PairPaths[pi] {
			nodes := p.Nodes(g)
			if len(nodes) != len(wantNodes) {
				continue
			}
			ok := true
			for i, n := range nodes {
				if g.NodeName(n) != wantNodes[i] {
					ok = false
					break
				}
			}
			if ok {
				found = k
				break
			}
		}
		if found < 0 {
			t.Fatalf("no candidate path %v for pair %v", wantNodes, pair)
		}
		for k := range ps.PairPaths[pi] {
			s[off[pi]+k] = 0
		}
		s[off[pi]+found] = 1
	}
	return s
}

// TestFigure3RoutingEquivalence reproduces Figure 3 exactly: routings A and
// B yield MLU 1, routing C yields MLU 2.
func TestFigure3RoutingEquivalence(t *testing.T) {
	ps := trianglePS()
	tm := figure3TM(ps)

	routingA := splitsFor(t, ps, map[[2]string][]string{
		{"1", "2"}: {"1", "2"},
		{"1", "3"}: {"1", "3"},
	})
	routingB := splitsFor(t, ps, map[[2]string][]string{
		{"1", "2"}: {"1", "3", "2"},
		{"1", "3"}: {"1", "2", "3"},
	})
	routingC := splitsFor(t, ps, map[[2]string][]string{
		{"1", "2"}: {"1", "2"},
		{"1", "3"}: {"1", "2", "3"},
	})

	mluA, _ := MLU(ps, tm, routingA)
	mluB, _ := MLU(ps, tm, routingB)
	mluC, _ := MLU(ps, tm, routingC)
	if math.Abs(mluA-1) > 1e-9 {
		t.Fatalf("routing A MLU = %v, want 1", mluA)
	}
	if math.Abs(mluB-1) > 1e-9 {
		t.Fatalf("routing B MLU = %v, want 1 (different splits, same MLU)", mluB)
	}
	if math.Abs(mluC-2) > 1e-9 {
		t.Fatalf("routing C MLU = %v, want 2", mluC)
	}
}

func TestUniformSplitsValid(t *testing.T) {
	for _, ps := range []*paths.PathSet{trianglePS(), abilenePS()} {
		if err := ValidateSplits(ps, UniformSplits(ps)); err != nil {
			t.Fatal(err)
		}
		if err := ValidateSplits(ps, ShortestPathSplits(ps)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidateSplitsRejects(t *testing.T) {
	ps := trianglePS()
	s := UniformSplits(ps)
	s[0] = -0.5
	if err := ValidateSplits(ps, s); err == nil {
		t.Fatal("negative split accepted")
	}
	s = UniformSplits(ps)
	s[0] += 0.5
	if err := ValidateSplits(ps, s); err == nil {
		t.Fatal("non-normalized split accepted")
	}
	if err := ValidateSplits(ps, s[:3]); err == nil {
		t.Fatal("short split vector accepted")
	}
}

func TestLinkLoadsSimple(t *testing.T) {
	ps := trianglePS()
	tm := figure3TM(ps)
	s := ShortestPathSplits(ps)
	loads := LinkLoads(ps, tm, s)
	g := ps.Graph
	total := 0.0
	for _, l := range loads {
		total += l
	}
	// Both demands take their 1-hop direct paths: total edge-flow = 200.
	if math.Abs(total-200) > 1e-9 {
		t.Fatalf("total link load = %v, want 200", total)
	}
	utils := Utilizations(ps, loads)
	for i, u := range utils {
		want := loads[i] / g.Edge(i).Capacity
		if math.Abs(u-want) > 1e-12 {
			t.Fatal("Utilizations inconsistent with loads")
		}
	}
}

func TestOptimalMLUTriangle(t *testing.T) {
	ps := trianglePS()
	tm := figure3TM(ps)
	opt, splits, err := OptimalMLU(ps, tm)
	if err != nil {
		t.Fatal(err)
	}
	// Demands 100+100 out of node 1 with 200 outgoing capacity: splitting
	// 1->2 over [1-2] and 1->3 over [1-3] fills both links exactly: MLU
	// cannot be below 2/3? Direct routing gives MLU 1. But the LP can also
	// split: best possible is 2/3 when load spreads over three links...
	// Node 1 has out-capacity 200 and must emit 200 units, so MLU >= ...
	// every unit leaves node 1 over links 1-2 or 1-3 (cap 100 each), total
	// 200 over 200 => max(u) >= avg(u) = 1. Optimal is exactly 1.
	if math.Abs(opt-1) > 1e-6 {
		t.Fatalf("triangle optimal MLU = %v, want 1", opt)
	}
	if err := ValidateSplits(ps, splits); err != nil {
		t.Fatalf("optimal splits invalid: %v", err)
	}
	got, _ := MLU(ps, tm, splits)
	if math.Abs(got-opt) > 1e-6 {
		t.Fatalf("routing optimal splits gives MLU %v, LP said %v", got, opt)
	}
}

func TestOptimalMLUNeverWorseThanHeuristics(t *testing.T) {
	ps := abilenePS()
	r := rng.New(5)
	for trial := 0; trial < 5; trial++ {
		tm := make(TrafficMatrix, ps.NumPairs())
		for i := range tm {
			tm[i] = r.Float64() * 2
		}
		opt, _, err := OptimalMLU(ps, tm)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Splits{UniformSplits(ps), ShortestPathSplits(ps)} {
			h, _ := MLU(ps, tm, s)
			if opt > h+1e-6 {
				t.Fatalf("optimal MLU %v worse than heuristic %v", opt, h)
			}
		}
	}
}

func TestOptimalMLUScalesLinearly(t *testing.T) {
	// MLU_OPT(alpha * d) == alpha * MLU_OPT(d) — the linearity the paper's
	// normalization argument (Eq. 3) relies on.
	ps := abilenePS()
	r := rng.New(6)
	tm := make(TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = r.Float64()
	}
	opt1, _, err := OptimalMLU(ps, tm)
	if err != nil {
		t.Fatal(err)
	}
	opt3, _, err := OptimalMLU(ps, tm.Clone().Scale(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt3-3*opt1) > 1e-5*math.Max(1, opt3) {
		t.Fatalf("linearity violated: MLU(3d)=%v, 3*MLU(d)=%v", opt3, 3*opt1)
	}
}

func TestZeroTrafficMatrix(t *testing.T) {
	ps := trianglePS()
	tm := make(TrafficMatrix, ps.NumPairs())
	opt, splits, err := OptimalMLU(ps, tm)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 0 {
		t.Fatalf("zero TM optimal MLU = %v, want 0", opt)
	}
	if err := ValidateSplits(ps, splits); err != nil {
		t.Fatal(err)
	}
}

func TestPerformanceRatio(t *testing.T) {
	ps := trianglePS()
	tm := figure3TM(ps)
	// Routing C from Figure 3 has MLU 2 while the optimal is 1 -> ratio 2.
	routingC := splitsFor(t, ps, map[[2]string][]string{
		{"1", "2"}: {"1", "2"},
		{"1", "3"}: {"1", "2", "3"},
	})
	ratio, sys, opt, err := PerformanceRatio(ps, tm, routingC)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-2) > 1e-6 || math.Abs(sys-2) > 1e-6 || math.Abs(opt-1) > 1e-6 {
		t.Fatalf("ratio=%v sys=%v opt=%v, want 2/2/1", ratio, sys, opt)
	}
}

// TestRatioScaleInvarianceWithFixedSplits verifies the property behind the
// paper's normalization argument (Eq. 2 -> Eq. 3): when the system's splits
// do not change, scaling the demand leaves the performance ratio unchanged,
// because both the system MLU and the optimal MLU scale linearly.
func TestRatioScaleInvarianceWithFixedSplits(t *testing.T) {
	ps := abilenePS()
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		tm := make(TrafficMatrix, ps.NumPairs())
		for i := range tm {
			if rr.Float64() < 0.4 {
				tm[i] = rr.Float64() * 2
			}
		}
		if tm.Total() == 0 {
			return true
		}
		splits := UniformSplits(ps)
		r1, _, _, err := PerformanceRatio(ps, tm, splits)
		if err != nil {
			return false
		}
		alpha := 0.25 + 3*rr.Float64()
		r2, _, _, err := PerformanceRatio(ps, tm.Clone().Scale(alpha), splits)
		if err != nil {
			return false
		}
		return math.Abs(r1-r2) < 1e-4*(1+r1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveredFlowZeroAndFull(t *testing.T) {
	ps := trianglePS()
	zero := make(TrafficMatrix, ps.NumPairs())
	if got := DeliveredFlow(ps, zero, UniformSplits(ps)); got != 0 {
		t.Fatalf("zero demand delivered %v", got)
	}
}

func TestTrafficMatrixHelpers(t *testing.T) {
	tm := TrafficMatrix{1, 2, 3}
	if tm.Total() != 6 || tm.Max() != 3 {
		t.Fatal("Total/Max wrong")
	}
	c := tm.Clone()
	c.Scale(2)
	if tm[0] != 1 || c[0] != 2 {
		t.Fatal("Clone/Scale aliasing bug")
	}
}
