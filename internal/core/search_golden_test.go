package core_test

// Golden pins of three fixed-seed searches: a change to the search engine
// that moves any restart's trajectory moves one of these values. The
// triangle search runs its restarts as one lock-step group on an untrained
// model scored by the system MLU alone (deterministicScore), so it pins the
// search engine without any LP. The Abilene search pins the whole chain: a
// model trained against LP optima, searched with LP-scored ratios. It holds
// bit for bit only because every optimal-MLU solve is cold, whatever pooled
// solver runs it and whenever the garbage collector empties the pool. The
// allocator search (MILP oracle, no TE LP) runs its restarts as one-restart
// groups.

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

type goldenSearch struct {
	ratio, sys, opt uint64 // math.Float64bits of BestRatio/BestSysMLU/BestOptMLU
	bestX           uint64 // FNV-64a over BestX's bits, little-endian
	evals           [3]int // Evals, GradEvals, LPEvals
	trace           []goldenTrace
	restarts        []goldenRestart
}

type goldenTrace struct {
	iter  int
	ratio uint64
}

type goldenRestart struct {
	iters int
	stop  core.StopReason
}

func hashBits(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range xs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func checkGolden(t *testing.T, res *core.SearchResult, want goldenSearch) {
	t.Helper()
	if got := [3]uint64{math.Float64bits(res.BestRatio), math.Float64bits(res.BestSysMLU), math.Float64bits(res.BestOptMLU)}; got != [3]uint64{want.ratio, want.sys, want.opt} {
		t.Errorf("best (ratio, sys, opt) bits %#x, want %#x", got, [3]uint64{want.ratio, want.sys, want.opt})
	}
	if got := hashBits(res.BestX); got != want.bestX {
		t.Errorf("BestX hash %#x, want %#x", got, want.bestX)
	}
	if got := [3]int{res.Evals, res.GradEvals, res.LPEvals}; got != want.evals {
		t.Errorf("Evals/GradEvals/LPEvals %v, want %v", got, want.evals)
	}
	if len(res.Trace) != len(want.trace) {
		t.Fatalf("trace has %d points, want %d", len(res.Trace), len(want.trace))
	}
	for i, p := range res.Trace {
		if p.Iter != want.trace[i].iter || math.Float64bits(p.Ratio) != want.trace[i].ratio {
			t.Errorf("trace[%d] = (%d, %#x), want (%d, %#x)", i, p.Iter, math.Float64bits(p.Ratio), want.trace[i].iter, want.trace[i].ratio)
		}
	}
	if len(res.Restarts) != len(want.restarts) {
		t.Fatalf("%d restart outcomes, want %d", len(res.Restarts), len(want.restarts))
	}
	for r, o := range res.Restarts {
		if o.Iters != want.restarts[r].iters || o.Stop != want.restarts[r].stop {
			t.Errorf("restart %d: %d iters, stop %v; want %d, %v", r, o.Iters, o.Stop, want.restarts[r].iters, want.restarts[r].stop)
		}
	}
}

// untrainedTriangleModel is trainedTriangleModel without the training: its
// weights come from the model seed alone, so this pin covers the search
// engine, not the LP.
func untrainedTriangleModel() *dote.Model {
	cfg := dote.DefaultConfig(dote.Curr)
	cfg.Hidden = []int{16}
	return dote.New(paths.NewPathSet(topology.Triangle(), 2), cfg)
}

// trainedAbileneModel is a small DOTE-Curr model on Abilene, trained for a
// few epochs against LP optima.
func trainedAbileneModel(t *testing.T) *dote.Model {
	t.Helper()
	ps := paths.NewPathSet(topology.Abilene(), 4)
	cfg := dote.DefaultConfig(dote.Curr)
	cfg.Hidden = []int{16}
	m := dote.New(ps, cfg)
	gen := traffic.NewGravity(ps, 0.3, rng.New(4))
	opts := dote.DefaultTrainOptions()
	opts.Epochs = 4
	opts.LR = 3e-3
	if _, err := dote.Train(m, traffic.CurrWindows(traffic.Sequence(gen, 24)), opts); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSearchGolden(t *testing.T) {
	t.Run("triangle", func(t *testing.T) {
		m := untrainedTriangleModel()
		cfg := core.DefaultGradientConfig()
		cfg.Iters = 60
		cfg.Restarts = 4
		cfg.EvalEvery = 5
		cfg.Patience = 3
		cfg.Seed = 5
		res, err := core.GradientSearch(deterministicScore(target(m)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, goldenSearch{
			ratio: 0x3ffd32cd8b86ca61, sys: 0x3ffd32cd8b86ca61, opt: 0x3ff0000000000000,
			bestX: 0x4dc94e2795551a4a,
			evals: [3]int{48, 240, 48},
			trace: []goldenTrace{
				{4, 0x3fe78f99cd0c93e0}, {4, 0x3fe84222b7ec1ebf}, {9, 0x3fecd506c194cfa6},
				{9, 0x3feddaadc9154f57}, {14, 0x3ff1122b921b1e84}, {14, 0x3ff1d06ec45b9069},
				{19, 0x3ff3bec710a1aef8}, {19, 0x3ff4c6d2511df797}, {24, 0x3ff66fa2ee407166},
				{24, 0x3ff7cc41acae656d}, {29, 0x3ff8f36c9332928a}, {29, 0x3ff9450d5a65703b},
				{34, 0x3ffa89f83717d2fb}, {39, 0x3ffb882426701273}, {44, 0x3ffbd9625641276f},
				{49, 0x3ffc0e7058ddde45}, {49, 0x3ffd1fdf3b562a88}, {54, 0x3ffd2027cd1d0ebf},
				{59, 0x3ffd207024359e43}, {59, 0x3ffd32cd8b86ca61},
			},
			restarts: []goldenRestart{
				{60, core.StopConverged}, {60, core.StopConverged}, {60, core.StopConverged}, {60, core.StopConverged},
			},
		})
	})
	t.Run("abilene-trained", func(t *testing.T) {
		m := trainedAbileneModel(t)
		cfg := core.DefaultGradientConfig()
		cfg.Iters = 30
		cfg.Restarts = 3
		cfg.EvalEvery = 3
		cfg.Patience = 3
		cfg.Seed = 7
		res, err := core.GradientSearch(target(m), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, goldenSearch{
			ratio: 0x4017471c9db1d696, sys: 0x4023309d3671acc4, opt: 0x3ffa6160c9092473,
			bestX: 0x7835f34ecd5fec8f,
			evals: [3]int{23, 69, 23},
			trace: []goldenTrace{
				{2, 0x400ac6c853f0aeb2}, {2, 0x401409f2d2133369}, {5, 0x40158fb5b511641f},
				{8, 0x40169a59321be80c}, {11, 0x4017471c9db1d696},
			},
			restarts: []goldenRestart{
				{24, core.StopPatience}, {21, core.StopPatience}, {24, core.StopPatience},
			},
		})
	})
	t.Run("alloc", func(t *testing.T) {
		acfg := alloc.QuickConfig()
		acfg.TrainEpochs = 40
		s, err := alloc.New(acfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Train(nil)
		cfg := core.DefaultGradientConfig()
		cfg.Iters = 30
		cfg.Restarts = 3
		cfg.EvalEvery = 2
		cfg.AlphaD = 0.5
		cfg.Patience = 4
		cfg.Seed = 3
		res, err := core.GradientSearch(s.Target(alloc.PipelineOptions{}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res, goldenSearch{
			ratio: 0x3ff6e34a2ab9e9a5, sys: 0x40034fc6940cdd22, opt: 0x3ffafffffffffffe,
			bestX: 0x822be6a61607d925,
			evals: [3]int{22, 44, 22},
			trace: []goldenTrace{
				{1, 0x3ff54fc9172b4912}, {3, 0x3ff683af80d3e250}, {5, 0x3ff6e34a2ab9e9a5},
			},
			restarts: []goldenRestart{
				{14, core.StopPatience}, {16, core.StopPatience}, {14, core.StopPatience},
			},
		})
	})
}
