package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/te"
)

// searchLimit bounds one in-process search; a search stopped by it counts
// in deadline_frac.
const searchLimit = 60 * time.Second

// searchGrace is how far past runOpts.stopBy a search already running may
// go.
const searchGrace = 20 * time.Second

// minSearches is the fewest searches a run makes: a median of fewer moves
// with the seeds a run happens to draw.
const minSearches = 8

// maxSamples bounds the iterates kept per run for replaying layer calls.
const maxSamples = 12

// searcher is one in-process workload after set-up: it runs one search and
// re-checks one answer.
type searcher interface {
	search(ctx context.Context, seed uint64, traced bool, span int) (*core.SearchResult, error)
	check(res *core.SearchResult, by time.Time) verdict
}

// tracedSearch is what a traced search leaves for the layer accounting.
type tracedSearch struct {
	res  *core.SearchResult
	wall time.Duration
	cpu  float64 // process CPU seconds the search used
}

// runSearches runs sequential searches until the window has closed and at
// least minSearches have run, then checks every answer outside the timed
// section. In trace mode every second search is traced, so traced and
// untraced wall times come from the same run.
func runSearches(o runOpts, w searcher) (outs []outcome, traced []tracedSearch, window time.Duration) {
	var results []*core.SearchResult
	start := time.Now()
	for k := 0; (k < minSearches || time.Since(start) < o.window) && time.Now().Before(o.stopBy); k++ {
		tr := o.trace && k%2 == 1
		sp := 0
		if tr {
			sp = o.tr.begin("search", 0)
		}
		ctx, cancel := context.WithTimeout(context.Background(), min(searchLimit, time.Until(o.stopBy)+searchGrace))
		c0, t0 := cpuSeconds(), time.Now()
		res, err := w.search(ctx, searchSeed(o.seed, k), tr, sp)
		wall, cpu := time.Since(t0), cpuSeconds()-c0
		cancel()
		o.tr.end(sp)
		oc := outcome{wall: wall, traced: tr}
		if err != nil {
			fmt.Fprintf(os.Stderr, "# search %d: %v\n", k, err)
			oc.failed = true
		} else {
			oc.found, oc.ratio = res.Found, res.BestRatio
			oc.failed = res.StopReason == core.StopFaulted
			oc.deadline = res.StopReason == core.StopDeadline
			oc.restartFaults, oc.restartRatios = restarts(res)
			if tr {
				traced = append(traced, tracedSearch{res, wall, cpu})
			}
		}
		outs = append(outs, oc)
		results = append(results, res)
	}
	window = time.Since(start)
	for i, res := range results {
		if res == nil || !res.Found {
			continue
		}
		record(&outs[i], w.check(res, o.checkBy), "search", i)
	}
	return outs, traced, window
}

// record applies an output-check verdict to the outcome it re-checked. A
// miss fails the answer; an unfinished check only counts as unfinished.
func record(oc *outcome, v verdict, what string, k int) {
	switch {
	case v.miss > 0:
		fmt.Fprintf(os.Stderr, "# %s %d: output check missed: %s\n", what, k, v.why)
		oc.failed = true
		oc.certViolations = v.miss
	case v.unfinished:
		fmt.Fprintf(os.Stderr, "# %s %d: output check unfinished: %s\n", what, k, v.why)
	}
	oc.checkUnfinished = v.unfinished
}

// restarts counts the restarts a search retired as faulted and collects the
// best ratio of every restart that found one.
func restarts(res *core.SearchResult) (faulted int, ratios []float64) {
	for _, r := range res.Restarts {
		if r.Stop == core.StopFaulted {
			faulted++
		}
		if r.BestRatio > 0 {
			ratios = append(ratios, r.BestRatio)
		}
	}
	return faulted, ratios
}

// searchSeed derives the k-th search seed of a run from the workload seed.
func searchSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) + 1 }

// sampler keeps a bounded set of restart-0 iterates at the search's
// evaluation points, through the FaultInjector seam (it never injects).
type sampler struct {
	mu     sync.Mutex
	points [][]float64
}

func (s *sampler) hook(every int) func(restart, iter int, x []float64) error {
	return func(restart, iter int, x []float64) error {
		if restart != 0 || iter%every != 0 {
			return nil
		}
		s.mu.Lock()
		if len(s.points) < maxSamples {
			s.points = append(s.points, append([]float64(nil), x...))
		}
		s.mu.Unlock()
		return nil
	}
}

// replay times fn once per sampled point and returns the median seconds.
func (s *sampler) replay(fn func(x []float64)) float64 {
	var ts []float64
	for _, x := range s.points {
		t0 := time.Now()
		fn(x)
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// searchLayers derives the search-loop and LP layers shared by the
// in-process workloads from the traced searches' own telemetry.
type searchLayers struct {
	walls, cpus, gradEvals, evals         []float64
	lpSolves, lpCold, lpWarmHit, lpPivots []float64
	lpP50, lpSum                          []float64
}

func collect(ts []tracedSearch) searchLayers {
	var l searchLayers
	for _, t := range ts {
		l.walls = append(l.walls, t.wall.Seconds())
		l.cpus = append(l.cpus, t.cpu)
		l.gradEvals = append(l.gradEvals, float64(t.res.GradEvals))
		l.evals = append(l.evals, float64(t.res.Evals))
		tel := t.res.Telemetry
		if tel == nil {
			continue
		}
		solves := float64(tel.Counters["lp.solves"])
		l.lpSolves = append(l.lpSolves, solves)
		l.lpCold = append(l.lpCold, float64(tel.Counters["lp.cold_solves"]))
		l.lpWarmHit = append(l.lpWarmHit, tel.Gauges["lp.warm_hit_ratio"])
		if solves > 0 {
			l.lpPivots = append(l.lpPivots, float64(tel.Counters["lp.pivots"])/solves)
		}
		h := tel.Histograms["lp.solve.ms"]
		l.lpP50 = append(l.lpP50, h.P50/1e3)
		l.lpSum = append(l.lpSum, h.Sum/1e3)
	}
	return l
}

// overhead is the traced minus the untraced median search wall time.
func overhead(outs []outcome) float64 {
	var on, off []float64
	for _, o := range outs {
		if o.traced {
			on = append(on, o.wall.Seconds())
		} else {
			off = append(off, o.wall.Seconds())
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on) - median(off)
}

// --- abilene-hist ---

// abilene is the paper's Table 1 target: DOTE-Hist on Abilene at
// experiments.DefaultSetup scale, attacked white-box.
type abilene struct {
	s  *experiments.Setup
	sm sampler
}

func runAbilene(o runOpts) (*report, error) {
	rep := &report{}
	var s *experiments.Setup
	var coldSolves, pivots []float64
	probe := 0.0
	for i := 0; i < abileneSetups; i++ {
		runtime.GC() // a repetition must not pay for the garbage of the last one
		sp := o.tr.begin("setup.prepare", 0)
		t0 := time.Now()
		si, err := experiments.Prepare(experiments.DefaultSetup(dote.Hist))
		d := time.Since(t0)
		o.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("abilene-hist: prepare: %w", err)
		}
		rep.setups = append(rep.setups, d)
		st := te.SolverStatsFor(si.PS)
		coldSolves = append(coldSolves, float64(st.ColdSolves))
		pivots = append(pivots, float64(st.Pivots))
		// Training is seeded, so every set-up must yield the same model.
		x := make([]float64, si.Target.InputDim)
		for j := range x {
			x[j] = si.Target.MaxDemand / 2
		}
		v := si.Target.Pipeline.EvalScalar(x)
		if i > 0 && v != probe {
			return nil, fmt.Errorf("abilene-hist: set-up %d trained a different model (%.17g vs %.17g)", i, v, probe)
		}
		probe, s = v, si
	}
	a := &abilene{s: s}
	outs, traced, window := runSearches(o, a)
	rep.outcomes, rep.window = outs, window
	if o.trace {
		l := collect(traced)
		t := s.Target
		gradS := a.sm.replay(func(x []float64) { _, _ = t.Pipeline.GradCtx(context.Background(), x) })
		fwdS := a.sm.replay(func(x []float64) { t.Pipeline.EvalScalar(x) })
		var unexplained, oracle []float64
		for i, cpu := range l.cpus {
			// The LP layer has a seam inside the search: its own per-solve
			// histogram, so its time is measured, not replayed.
			lp := 0.0
			if i < len(l.lpSum) {
				lp = l.lpSum[i]
			}
			unexplained = append(unexplained, 1-(l.gradEvals[i]*gradS+l.evals[i]*fwdS+lp)/cpu)
			oracle = append(oracle, lp/cpu)
		}
		c := tally(outs)
		rep.layers = map[string]float64{
			"setup.lp_cold_solves":    median(coldSolves),
			"setup.lp_pivots":         median(pivots),
			"lp.solve_s_p50":          median(l.lpP50),
			"lp.solves":               median(l.lpSolves),
			"lp.cold_solves":          median(l.lpCold),
			"lp.warm_hit_ratio":       median(l.lpWarmHit),
			"lp.pivots_per_solve":     median(l.lpPivots),
			"lp.cert_violations":      float64(c.certViolations),
			"pipeline.grad_s":         gradS,
			"core.grad_evals":         median(l.gradEvals),
			"search.oracle_share":     median(oracle),
			"search.restart_faults":   float64(c.restartFaults),
			"model.unexplained_share": median(unexplained),
			"trace.overhead_s":        overhead(outs),
		}
	}
	rep.liveHeapMB = liveHeapMB()
	keep(s)
	return rep, nil
}

func (a *abilene) search(ctx context.Context, seed uint64, traced bool, _ int) (*core.SearchResult, error) {
	cfg := core.DefaultGradientConfig()
	cfg.Seed = seed
	if traced {
		cfg.Obs = obs.NewRegistry()
		cfg.FaultInjector = a.sm.hook(cfg.EvalEvery)
	}
	return core.GradientSearchContext(ctx, a.s.Target, cfg)
}

func (a *abilene) check(res *core.SearchResult, by time.Time) verdict {
	return checkTE(a.s.Target, res, by)
}

// --- alloc-milp ---

// allocBench is the VM-allocator case study at alloc.DefaultConfig scale,
// attacked with the CLI's default search budget.
type allocBench struct {
	sys    *alloc.System
	target *core.AttackTarget
	tr     *tracer
	sm     sampler

	mu          sync.Mutex
	oracleCalls int // RatioOverride calls in traced searches
	noInc       int // of which found no usable MILP incumbent
	cacheHits   int64
	cacheLooks  int64
	milp        []*obs.Snapshot
}

// allocConfig is alloc.DefaultConfig with the CLI's default seed.
func allocConfig() alloc.Config {
	cfg := alloc.DefaultConfig()
	cfg.Seed = 1
	return cfg
}

func runAlloc(o runOpts) (*report, error) {
	rep := &report{}
	var sys *alloc.System
	var avgRatio float64
	for i := 0; i < allocSetups; i++ {
		runtime.GC() // a repetition must not pay for the garbage of the last one
		sp := o.tr.begin("setup.train", 0)
		t0 := time.Now()
		si, err := alloc.New(allocConfig())
		if err != nil {
			return nil, fmt.Errorf("alloc-milp: new: %w", err)
		}
		si.Train(nil)
		avg, err := si.Explain(si.AverageMix())
		d := time.Since(t0)
		o.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("alloc-milp: explain average mix: %w", err)
		}
		rep.setups = append(rep.setups, d)
		if i > 0 && avg.Ratio != avgRatio {
			return nil, fmt.Errorf("alloc-milp: set-up %d trained a different scorer (average-mix ratio %.17g vs %.17g)", i, avg.Ratio, avgRatio)
		}
		avgRatio, sys = avg.Ratio, si
	}
	a := &allocBench{sys: sys, target: sys.Target(alloc.PipelineOptions{FDStep: 1e-4, Seed: 1}), tr: o.tr}
	outs, traced, window := runSearches(o, a)
	rep.outcomes, rep.window = outs, window
	if o.trace {
		l := collect(traced)
		t := a.target
		gradS := a.sm.replay(func(x []float64) { _, _ = t.Pipeline.GradCtx(context.Background(), x) })
		fwdS := a.sm.replay(func(x []float64) { t.Pipeline.EvalScalar(x) })
		milpS := a.sm.replay(func(x []float64) { _, _, _, _ = t.RatioOverride(x) })
		var nodes, resolves, cold float64
		for _, s := range a.milp {
			nodes += float64(s.Counters["milp.nodes"])
			resolves += float64(s.Counters["milp.warm_hits"])
			cold += float64(s.Counters["milp.cold_fallbacks"])
		}
		solves := float64(a.oracleCalls)
		cpu, pred := 0.0, 0.0
		for i, c := range l.cpus {
			cpu += c
			pred += l.gradEvals[i]*gradS + l.evals[i]*fwdS
		}
		hit := 0.0
		if a.cacheLooks > 0 {
			hit = float64(a.cacheHits) / float64(a.cacheLooks)
		}
		perSearch := func(v float64) float64 { return v / float64(max(1, len(traced))) }
		c := tally(outs)
		rep.layers = map[string]float64{
			"milp.solve_s_p50":        milpS,
			"milp.solves":             perSearch(solves),
			"milp.nodes_per_solve":    nodes / max(1, solves),
			"milp.node_resolves":      perSearch(resolves),
			"milp.cold_fallbacks":     perSearch(cold),
			"milp.no_incumbent":       perSearch(float64(a.noInc)),
			"pipeline.grad_s":         gradS,
			"core.grad_evals":         median(l.gradEvals),
			"search.oracle_share":     solves * milpS / max(cpu, 1e-9),
			"search.restart_faults":   float64(c.restartFaults),
			"evalcache.hit_ratio":     hit,
			"lp.cert_violations":      float64(c.certViolations),
			"model.unexplained_share": 1 - (pred+solves*milpS)/max(cpu, 1e-9),
			"trace.overhead_s":        overhead(outs),
		}
	}
	rep.liveHeapMB = liveHeapMB()
	keep(a)
	return rep, nil
}

func (a *allocBench) search(ctx context.Context, seed uint64, traced bool, span int) (*core.SearchResult, error) {
	cfg := core.DefaultGradientConfig()
	cfg.Iters, cfg.Restarts, cfg.AlphaD, cfg.EvalEvery = 200, 6, 0.5, 2
	cfg.Seed = seed
	// Quantum 1.0 matches the allocator's integer quantization, as in the CLI.
	cfg.EvalCache = core.NewEvalCache(4096, 1.0)
	a.sys.Bind(ctx)
	defer a.sys.Bind(context.Background())
	target := *a.target
	if traced {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		cfg.FaultInjector = a.sm.hook(cfg.EvalEvery)
		a.sys.Obs = reg
		defer func() { a.sys.Obs = nil }()
		inner := target.RatioOverride
		target.RatioOverride = func(x []float64) (float64, float64, float64, error) {
			id := a.tr.begin("milp.oracle", span)
			r, s, opt, err := inner(x)
			a.tr.end(id)
			a.mu.Lock()
			a.oracleCalls++
			if err != nil {
				a.noInc++
			}
			a.mu.Unlock()
			return r, s, opt, err
		}
	}
	res, err := core.GradientSearchContext(ctx, &target, cfg)
	if traced && err == nil {
		st := cfg.EvalCache.Stats()
		a.mu.Lock()
		a.cacheHits += st.Hits
		a.cacheLooks += st.Hits + st.Misses
		a.milp = append(a.milp, res.Telemetry)
		a.mu.Unlock()
	}
	return res, err
}

func (a *allocBench) check(res *core.SearchResult, _ time.Time) verdict {
	return checkAlloc(a.sys, res)
}
