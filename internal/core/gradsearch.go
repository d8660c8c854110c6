package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/te"
)

// ObjectiveMode selects the search objective.
type ObjectiveMode int

const (
	// Lagrangian is the paper's method (Eq. 3–5): maximize MLU_system(d)
	// over the convexified feasible space {d : ∃f MLU(d,f)=1}, relaxed via
	// a Lagrange multiplier and solved with multi-step gradient
	// descent-ascent.
	Lagrangian ObjectiveMode = iota
	// DirectAscent ablates the convex reformulation: plain gradient ascent
	// on MLU_system(x) (Eq. 2's numerator) with no feasibility term.
	DirectAscent
)

func (m ObjectiveMode) String() string {
	if m == DirectAscent {
		return "direct-ascent"
	}
	return "lagrangian"
}

// SearchEngine selects how the restarts of GradientSearch are executed.
type SearchEngine int

const (
	// EngineAuto picks the batched engine when Restarts > 1 and every
	// pipeline stage batches natively (BatchCapable), else the scalar one.
	EngineAuto SearchEngine = iota
	// EngineScalar runs each restart as its own goroutine over the scalar
	// chain-rule path.
	EngineScalar
	// EngineBatched runs all active restarts in lock-step as one [R, n]
	// batch, turning the DNN sweeps into matrix–matrix kernels. Both engines
	// follow bitwise-identical per-restart trajectories. With Restarts == 1
	// the scalar path is used regardless (there is nothing to batch).
	EngineBatched
)

func (e SearchEngine) String() string {
	switch e {
	case EngineScalar:
		return "scalar"
	case EngineBatched:
		return "batched"
	default:
		return "auto"
	}
}

// GradientConfig are the hyper-parameters of Eq. 5.
type GradientConfig struct {
	// Iters is the number of outer iterations per restart.
	Iters int
	// T is the number of inner ascent steps per outer iteration (§4; the
	// paper uses T = 1).
	T int
	// AlphaD, AlphaF, AlphaL are the step sizes for demands, split
	// variables and the multiplier. The paper sets all three to 0.01.
	AlphaD, AlphaF, AlphaL float64
	// LambdaInit seeds the multiplier.
	LambdaInit float64
	// Restarts is the number of random restarts; they run in parallel.
	Restarts int
	// Workers caps restart parallelism (0 = Restarts).
	Workers int
	// EvalEvery controls how often (in outer iterations) the true ratio is
	// scored with the LP.
	EvalEvery int
	// Seed drives initialization.
	Seed uint64
	// Mode selects the objective (see ObjectiveMode).
	Mode ObjectiveMode
	// Patience stops a restart after this many consecutive evaluations
	// without improvement (0 = never stop early).
	Patience int
	// Momentum, when positive, applies heavy-ball momentum to the demand
	// ascent direction — an optimization-quality knob the ablations probe.
	Momentum float64
	// Constraints restricts the search to realistic inputs (§6). Each gets
	// its own multiplier, relaxed into the objective like Eq. 4's term.
	Constraints []InputConstraint
	// ConstraintTarget is the target value c of the feasibility constraint
	// MLU(d, f) = c (Eq. 3 uses c = 1; "Other TE Objectives" sweeps it to
	// realize {d | OPT(d, f) = P}). Zero means 1.
	ConstraintTarget float64
	// Engine selects the restart execution strategy (see SearchEngine).
	Engine SearchEngine
	// EvalCache, when non-nil, memoizes true-ratio scoring (hash of the
	// quantized input → ratio/sys/opt) across restarts and searches, so
	// lock-step batches and near-converged restarts stop re-solving the
	// optimal-MLU LP at coincident points. Cached evaluations are not
	// counted in Evals/LPEvals. Nil disables memoization.
	EvalCache *EvalCache
	// Obs, when non-nil, receives search telemetry: per-stage pipeline
	// timings (see Pipeline.Instrument), per-restart step/reject/fault
	// counters ("search.restart.<r>.steps" etc.), LP solve latency and
	// warm-start counters from the traffic-engineering solver, and the
	// search-level improvement count. The registry's snapshot is attached to
	// the result as SearchResult.Telemetry. Nil keeps every hot path on its
	// allocation-free uninstrumented branch.
	Obs *obs.Registry
	// FaultInjector, when non-nil, is invoked at the top of every outer
	// iteration of every live restart with the restart index, the outer
	// iteration and a read-only view of the current iterate. Returning a
	// non-nil error makes that restart panic with it, exercising the same
	// recover() boundary that contains real component panics. Tests use it
	// both to fault restart k at step j deterministically and to observe
	// per-restart trajectories; it must not mutate x.
	FaultInjector func(restart, iter int, x []float64) error
	// Executor, when non-nil, receives one task per restart instead of the
	// search spawning its own bounded worker goroutines — the analyzer
	// daemon's work-stealing pool rides this to interleave restarts from
	// many concurrent searches over one set of machine cores. Run must
	// execute the task exactly once (on any goroutine, at any later time);
	// the search blocks until all its tasks complete. An Executor implies
	// the scalar engine (each restart is an independent work item), whose
	// per-restart trajectories are bitwise identical regardless of
	// scheduling, and makes Workers moot: parallelism is the pool's.
	Executor Executor
	// OnImprove, when non-nil, is invoked after every global best-ratio
	// improvement with the new best and the time since the search started.
	// Calls are strictly ratio-monotone and serialized (made under the
	// result lock from restart workers) — keep the callback fast. The
	// daemon uses it to stream incremental best-so-far results per job.
	OnImprove func(ratio, sys, opt float64, iter int, elapsed time.Duration)
}

// Executor runs independent tasks on behalf of a search. Implementations
// must execute every submitted task exactly once and may run tasks from many
// searches concurrently; tasks never block on other tasks, so any pool with
// at least one worker makes progress.
type Executor interface {
	Run(task func())
}

// DefaultGradientConfig mirrors §5: alpha = 0.01 everywhere, T = 1.
func DefaultGradientConfig() GradientConfig {
	return GradientConfig{
		Iters:      400,
		T:          1,
		AlphaD:     0.01,
		AlphaF:     0.01,
		AlphaL:     0.01,
		LambdaInit: 1,
		Restarts:   4,
		EvalEvery:  10,
		Seed:       1,
		Patience:   8,
	}
}

// TracePoint records the best-known ratio at a point in the search.
type TracePoint struct {
	Iter    int
	Ratio   float64
	Elapsed time.Duration
}

// SearchResult is the outcome of any adversarial-input search.
type SearchResult struct {
	Method string
	// BestRatio is the largest verified performance ratio (Eq. 2).
	BestRatio float64
	// BestX is the adversarial input attaining it.
	BestX []float64
	// BestSysMLU / BestOptMLU decompose the ratio.
	BestSysMLU, BestOptMLU float64
	// Evals counts pipeline forward evaluations; GradEvals counts
	// end-to-end gradient computations; LPEvals counts optimal-MLU solves.
	Evals, GradEvals, LPEvals int
	// Elapsed is the total wall-clock time; TimeToBest is when the best
	// ratio was found (the paper reports the earliest point at which no
	// further improvement occurred).
	Elapsed, TimeToBest time.Duration
	// Trace samples the best ratio over time.
	Trace []TracePoint
	// Found reports whether any ratio was discovered at all (white-box
	// baselines can time out with nothing — the "—" entries in Tables 1/2).
	Found bool
	// StopReason classifies why the search as a whole stopped (see the
	// failure-semantics section of DESIGN.md). Cancellation and deadlines
	// are reported here, NOT as an error: the result always carries the best
	// point found so far.
	StopReason StopReason
	// Restarts records how each restart ended, indexed by restart number
	// (gradient searches only; baselines leave it nil).
	Restarts []RestartOutcome
	// Faults lists contained component failures (capped at 64 entries);
	// FaultCount is the uncapped total.
	Faults     []*ComponentError
	FaultCount int
	// Telemetry is the metrics snapshot taken at the end of the search when
	// GradientConfig.Obs was set; nil otherwise. It round-trips through
	// WriteJSON/ReadResultJSON.
	Telemetry *obs.Snapshot
}

func (r *SearchResult) String() string {
	if !r.Found {
		return fmt.Sprintf("%s: no adversarial input found (elapsed %v)", r.Method, r.Elapsed.Round(time.Millisecond))
	}
	return fmt.Sprintf("%s: ratio %.2fx (sys %.3f / opt %.3f) in %v",
		r.Method, r.BestRatio, r.BestSysMLU, r.BestOptMLU, r.TimeToBest.Round(time.Millisecond))
}

// maxConsecutiveEvalFaults retires a restart whose true-ratio evaluation
// (the LP solve) keeps failing: single failures reject the step and the
// search continues from the same trajectory, persistent failure retires just
// that restart.
const maxConsecutiveEvalFaults = 3

// searchObs holds the search engines' pre-resolved counter handles: registry
// lookups happen once per search, never inside the iteration loops. Built
// from a nil registry every handle is nil, and the nil-receiver no-op
// contract of the obs package makes every increment free.
type searchObs struct {
	// steps/rejects/faults are indexed by restart number.
	steps, rejects, faults []*obs.Counter
	// batchFaults counts faults in shared batched stages (Restart == -1),
	// which cannot be attributed to one row.
	batchFaults *obs.Counter
	// improvements counts global best-ratio improvements.
	improvements *obs.Counter
}

func newSearchObs(reg *obs.Registry, restarts int) *searchObs {
	so := &searchObs{
		steps:   make([]*obs.Counter, restarts),
		rejects: make([]*obs.Counter, restarts),
		faults:  make([]*obs.Counter, restarts),
	}
	if reg == nil {
		// All handles stay nil; every increment is a nil-receiver no-op.
		return so
	}
	so.batchFaults = reg.Counter("search.fault.batch")
	so.improvements = reg.Counter("search.improvements")
	for r := 0; r < restarts; r++ {
		so.steps[r] = reg.Counter(fmt.Sprintf("search.restart.%d.steps", r))
		so.rejects[r] = reg.Counter(fmt.Sprintf("search.restart.%d.rejects", r))
		so.faults[r] = reg.Counter(fmt.Sprintf("search.restart.%d.faults", r))
	}
	return so
}

// GradientSearch runs the paper's gray-box analyzer: multi-step gradient
// descent-ascent on the Lagrangian of Eq. 4, with gradients obtained from
// the pipeline via the chain rule (§3.2). Restarts run concurrently.
func GradientSearch(target *AttackTarget, cfg GradientConfig) (*SearchResult, error) {
	return GradientSearchContext(context.Background(), target, cfg)
}

// GradientSearchContext is GradientSearch under a caller-controlled context:
// cancelling ctx (or letting its deadline expire) stops the search within
// roughly one outer-iteration granularity and returns a well-formed
// SearchResult holding the best point found so far, with StopReason set to
// cancelled or deadline — not an error. Component panics and LP failures are
// contained per restart (see ComponentError); the returned error is non-nil
// only for invalid targets or configurations.
func GradientSearchContext(ctx context.Context, target *AttackTarget, cfg GradientConfig) (*SearchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	if cfg.Iters <= 0 || cfg.Restarts <= 0 {
		return nil, fmt.Errorf("core: GradientSearch needs positive Iters and Restarts")
	}
	if cfg.T < 1 {
		cfg.T = 1
	}
	if cfg.EvalEvery < 1 {
		cfg.EvalEvery = 10
	}
	workers := cfg.Workers
	if workers <= 0 || workers > cfg.Restarts {
		workers = cfg.Restarts
	}
	// Pre-warm the path set's routing kernels before spawning restarts.
	if target.PS != nil {
		routingFor(target.PS)
	}

	// Telemetry: instrument the pipeline and the shared LP solver for the
	// duration of the search, restoring the uninstrumented fast paths on the
	// way out. LP counters are cumulative across searches sharing a path
	// set, so the search publishes its own delta.
	so := newSearchObs(cfg.Obs, cfg.Restarts)
	var lpBefore lp.SolverStatsSnapshot
	var cacheBefore EvalCacheStats
	if cfg.Obs != nil {
		target.Pipeline.Instrument(cfg.Obs)
		defer target.Pipeline.Instrument(nil)
		if target.PS != nil {
			te.InstrumentSolver(target.PS, cfg.Obs)
			defer te.InstrumentSolver(target.PS, nil)
			lpBefore = te.SolverStatsFor(target.PS)
		}
		if cfg.EvalCache != nil {
			cacheBefore = cfg.EvalCache.Stats()
		}
	}

	start := time.Now()
	res := &SearchResult{Method: "gradient-based (" + cfg.Mode.String() + ")"}
	var mu sync.Mutex
	// Improvements are logged per restart and folded into Best*/Trace only
	// after the restarts join (foldImprovements), so the result does not
	// depend on the order concurrent restarts happen to report in. Only the
	// live OnImprove stream follows arrival order.
	logs := make([]restartLog, cfg.Restarts)
	liveBest := 0.0
	improve := func(restart int, ratio, sys, opt float64, x []float64, iter int) {
		at := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		logs[restart].record(improvement{
			restart: restart, iter: iter, ratio: ratio, sys: sys, opt: opt, at: at,
		}, x)
		if ratio > liveBest {
			liveBest = ratio
			if cfg.OnImprove != nil {
				cfg.OnImprove(ratio, sys, opt, iter, at)
			}
		}
	}
	count := func(evals, grads, lps int) {
		mu.Lock()
		res.Evals += evals
		res.GradEvals += grads
		res.LPEvals += lps
		mu.Unlock()
	}
	recordFault := func(ce *ComponentError) {
		mu.Lock()
		res.FaultCount++
		if len(res.Faults) < maxRecordedFaults {
			res.Faults = append(res.Faults, ce)
		}
		mu.Unlock()
		if ce.Restart >= 0 && ce.Restart < len(so.faults) {
			so.faults[ce.Restart].Inc()
		} else {
			so.batchFaults.Inc()
		}
	}

	// Engine dispatch: the batched engine wins when the DNN sweeps dominate
	// and every stage batches natively; the scalar engine keeps per-restart
	// goroutine parallelism and is the only option for Restarts == 1. An
	// external Executor forces the scalar engine — restarts must be
	// independent work items a pool can interleave with other searches, and
	// the engines' bitwise trajectory contract keeps the results identical.
	useBatched := cfg.Restarts > 1 && cfg.Executor == nil &&
		(cfg.Engine == EngineBatched ||
			(cfg.Engine == EngineAuto && target.Pipeline.BatchCapable()))
	if useBatched {
		res.Restarts = runBatchedRestarts(ctx, target, cfg, workers, improve, count, recordFault, so)
	} else {
		outcomes := make([]RestartOutcome, cfg.Restarts)
		var wg sync.WaitGroup
		if cfg.Executor != nil {
			// Restart parallelism belongs to the external pool: submit every
			// restart as one work item and wait for the pool to drain them.
			for restart := 0; restart < cfg.Restarts; restart++ {
				restart := restart
				wg.Add(1)
				cfg.Executor.Run(func() {
					defer wg.Done()
					outcomes[restart] = runRestart(ctx, target, cfg, restart, improve, count, recordFault, so)
				})
			}
		} else {
			sem := make(chan struct{}, workers)
			for restart := 0; restart < cfg.Restarts; restart++ {
				wg.Add(1)
				go func(restart int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					outcomes[restart] = runRestart(ctx, target, cfg, restart, improve, count, recordFault, so)
				}(restart)
			}
		}
		wg.Wait()
		res.Restarts = outcomes
	}
	res.Elapsed = time.Since(start)
	res.foldImprovements(logs, so.improvements)
	res.StopReason = aggregateStop(ctx, res.Restarts)
	if cfg.Obs != nil {
		if target.PS != nil {
			delta := te.SolverStatsFor(target.PS).Sub(lpBefore)
			cfg.Obs.Counter("lp.solves").Add(delta.Solves)
			cfg.Obs.Counter("lp.warm_attempts").Add(delta.WarmAttempts)
			cfg.Obs.Counter("lp.warm_hits").Add(delta.WarmHits)
			cfg.Obs.Counter("lp.cold_solves").Add(delta.ColdSolves)
			cfg.Obs.Counter("lp.pivots").Add(delta.Pivots)
			cfg.Obs.Gauge("lp.warm_hit_ratio").Set(delta.WarmHitRatio())
		}
		if cfg.EvalCache != nil {
			d := cfg.EvalCache.Stats().Sub(cacheBefore)
			cfg.Obs.Counter("evalcache.hits").Add(d.Hits)
			cfg.Obs.Counter("evalcache.misses").Add(d.Misses)
			cfg.Obs.Counter("evalcache.evictions").Add(d.Evictions)
			cfg.Obs.Counter("evalcache.bypasses").Add(d.Bypasses)
			cfg.Obs.Gauge("evalcache.entries").Set(float64(d.Entries))
		}
		cfg.Obs.Histogram("search.elapsed.ms").Observe(float64(res.Elapsed) / float64(time.Millisecond))
		res.Telemetry = cfg.Obs.Snapshot()
	}
	return res, nil
}

// improvement is one restart's new local-best ratio.
type improvement struct {
	restart, iter   int
	ratio, sys, opt float64
	at              time.Duration // since the search started
}

// restartLog is one restart's improvement history. Its ratios rise
// strictly, so only the last entry can become the search's best; bestX
// holds that entry's point, overwritten on every local improvement.
type restartLog struct {
	entries []improvement
	bestX   []float64
}

// record appends im and makes x the restart's best point.
func (l *restartLog) record(im improvement, x []float64) {
	l.entries = append(l.entries, im)
	l.bestX = append(l.bestX[:0], x...)
}

// foldImprovements replays the per-restart improvement logs in (iter,
// restart) order, setting Best*, Found, Trace and TimeToBest from the
// entries that raise the global best, and counts each such entry on
// improvements (nil-safe). The order is a function of the trajectories
// alone, never of goroutine scheduling, so equal trajectories give equal
// results.
func (res *SearchResult) foldImprovements(logs []restartLog, improvements *obs.Counter) {
	var all []improvement
	for _, l := range logs {
		all = append(all, l.entries...)
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].iter != all[b].iter {
			return all[a].iter < all[b].iter
		}
		return all[a].restart < all[b].restart
	})
	for _, im := range all {
		if im.ratio <= res.BestRatio {
			continue
		}
		res.BestRatio, res.BestSysMLU, res.BestOptMLU = im.ratio, im.sys, im.opt
		res.BestX = logs[im.restart].bestX
		res.TimeToBest = im.at
		res.Found = true
		res.Trace = append(res.Trace, TracePoint{Iter: im.iter, Ratio: im.ratio, Elapsed: im.at})
		improvements.Inc()
	}
}

// aggregateStop folds per-restart outcomes into the search-level StopReason.
func aggregateStop(ctx context.Context, outcomes []RestartOutcome) StopReason {
	if err := ctx.Err(); err != nil {
		return ctxStopReason(err)
	}
	sawConverged, sawNonFault := false, false
	for _, o := range outcomes {
		if o.Stop == StopDeadline || o.Stop == StopCancelled {
			return o.Stop // the context fired mid-evaluation (see evalCtxErr)
		}
		if o.Stop == StopConverged {
			sawConverged = true
		}
		if o.Stop != StopFaulted {
			sawNonFault = true
		}
	}
	switch {
	case !sawNonFault:
		return StopFaulted
	case sawConverged:
		return StopConverged
	default:
		return StopPatience
	}
}

// evalCtxErr returns the context error behind a failed evaluation: ctx's own
// error, or a deadline the LP saw pass before ctx's timer fired (te reports
// that as context.DeadlineExceeded while ctx.Err() can still be nil).
func evalCtxErr(ctx context.Context, err error) error {
	if ce := ctx.Err(); ce != nil {
		return ce
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return nil
}

// runRestart executes one trajectory of Eq. 5. It never propagates panics or
// component errors: each outer iteration's compute runs under a recover()
// boundary, and a fault retires only this restart (recorded in the outcome).
func runRestart(ctx context.Context, target *AttackTarget, cfg GradientConfig, restart int,
	improve func(restart int, ratio, sys, opt float64, x []float64, iter int),
	count func(evals, grads, lps int),
	recordFault func(*ComponentError),
	so *searchObs,
) (out RestartOutcome) {
	out = RestartOutcome{Restart: restart, Stop: StopConverged}
	r := rng.New(cfg.Seed + uint64(restart)*0x9e3779b97f4a7c15)
	n := target.InputDim
	nSlots := 0
	if target.PS != nil {
		nSlots = len(routingFor(target.PS).slotPair)
	}
	if target.PS == nil {
		// Non-TE target: no routing substrate, so no feasibility term.
		cfg.Mode = DirectAscent
	}

	// Initialize the search point inside the box. Mixing dense and sparse
	// starts diversifies restarts: sparse starts match the adversarial
	// demand shape of Figure 5.
	x := make([]float64, n)
	if restart%2 == 0 {
		for i := range x {
			x[i] = r.Float64() * target.MaxDemand * 0.5
		}
	} else {
		for i := range x {
			if r.Float64() < 0.15 {
				x[i] = r.Float64() * target.MaxDemand
			}
		}
	}
	fLogits := make([]float64, nSlots)
	lambda := cfg.LambdaInit
	cTarget := cfg.ConstraintTarget
	if cTarget == 0 {
		cTarget = 1
	}
	mus := make([]float64, len(cfg.Constraints))
	var velocity []float64
	if cfg.Momentum > 0 {
		velocity = make([]float64, n)
	}

	// Step sizes are relative to the demand scale so that alpha=0.01 moves
	// demands by ~1% of the box per step, matching the paper's convention.
	stepD := cfg.AlphaD * target.MaxDemand
	stepF := cfg.AlphaF
	stepL := cfg.AlphaL

	demS, demE := target.DemandStart, target.DemandStart+target.DemandLen

	// Per-restart scratch for the constraint gradients, reused across
	// iterations (constraintMLU writes into these).
	gD := make([]float64, demE-demS)
	gF := make([]float64, len(fLogits))

	bestLocal := 0.0
	stale := 0
	evalFaults := 0
	evals, grads, lps := 0, 0, 0
	defer func() {
		out.BestRatio = bestLocal
		count(evals, grads, lps)
	}()

	for iter := 0; iter < cfg.Iters; iter++ {
		if err := ctx.Err(); err != nil {
			out.Stop = ctxStopReason(err)
			return out
		}
		var cMLU float64
		var ctxErr error
		stage := "fault-injector"
		cerr := contained(restart, iter, &stage, func() {
			if cfg.FaultInjector != nil {
				if err := cfg.FaultInjector(restart, iter, x); err != nil {
					panic(err)
				}
			}
			for inner := 0; inner < cfg.T; inner++ {
				// Gradient of the system's MLU with respect to the full input,
				// assembled stage by stage via the chain rule.
				stage = "pipeline-grad"
				g, err := target.Pipeline.GradCtx(ctx, x)
				if err != nil {
					ctxErr = err
					return
				}
				gNorm := normalizeInPlace(g)
				grads++

				if cfg.Mode == Lagrangian {
					stage = "constraint-mlu"
					cMLU = target.constraintMLU(x[demS:demE], fLogits, gD, gF)
					// Ascend d on  M_adv + λ·(MLU(d,f)−1).
					dNorm := normalizeInPlace(gD)
					for i := demS; i < demE; i++ {
						gNorm[i] += lambda * dNorm[i-demS]
					}
					// Ascend f on  λ·MLU(d,f).
					fNorm := normalizeInPlace(gF)
					for i := range fLogits {
						fLogits[i] += stepF * lambda * fNorm[i]
					}
				}
				if len(cfg.Constraints) > 0 {
					stage = "input-constraints"
					applyConstraints(cfg.Constraints, mus, x, gNorm, stepL)
				}
				stage = "ascent-step"
				if velocity != nil {
					for i := range velocity {
						velocity[i] = cfg.Momentum*velocity[i] + gNorm[i]
					}
					gNorm = velocity
				}
				for i := range x {
					x[i] += stepD * gNorm[i]
					if x[i] < 0 {
						x[i] = 0
					}
					if x[i] > target.MaxDemand {
						x[i] = target.MaxDemand
					}
				}
			}
		})
		if ctxErr != nil {
			out.Stop = ctxStopReason(ctxErr)
			return out
		}
		if cerr != nil {
			recordFault(cerr)
			out.Stop = StopFaulted
			out.Fault = cerr
			return out
		}
		if cfg.Mode == Lagrangian {
			// Descend λ on the constraint violation (outer minimization).
			lambda -= stepL * (cMLU - cTarget)
		}
		out.Iters = iter + 1
		so.steps[restart].Inc()

		if (iter+1)%cfg.EvalEvery == 0 || iter == cfg.Iters-1 {
			ratio, sys, opt, cached, err := target.ratioCachedCtx(ctx, cfg.EvalCache, x)
			if !cached {
				evals++
				lps++
			}
			if err != nil {
				if ce := evalCtxErr(ctx, err); ce != nil {
					out.Stop = ctxStopReason(ce)
					return out
				}
				// A non-optimal LP status (or any other eval failure)
				// mid-search rejects this scoring step instead of propagating
				// a garbage MLU into the search: the trajectory continues from
				// the same iterate, and only persistent failure retires the
				// restart.
				fault := &ComponentError{Restart: restart, Iter: iter, Stage: "ratio-eval", Err: err}
				recordFault(fault)
				so.rejects[restart].Inc()
				evalFaults++
				if evalFaults >= maxConsecutiveEvalFaults {
					out.Stop = StopFaulted
					out.Fault = fault
					return out
				}
				stale++
				if cfg.Patience > 0 && stale >= cfg.Patience {
					out.Stop = StopPatience
					return out
				}
				continue
			}
			evalFaults = 0
			if ratio > bestLocal {
				bestLocal = ratio
				stale = 0
				improve(restart, ratio, sys, opt, x, iter)
			} else {
				stale++
				if cfg.Patience > 0 && stale >= cfg.Patience {
					out.Stop = StopPatience
					return out
				}
			}
		}
	}
	return out
}

// runBatchedRestarts executes every restart's Eq. 5 trajectory in lock-step:
// one [A, n] batch of the A still-active restarts per inner step, so the
// pipeline sweep and the constraint term run as single batched tape builds
// instead of A scalar ones. Each restart's arithmetic — initialization,
// normalization, multiplier updates, eval cadence, Patience — replicates
// runRestart exactly, and the batched stages guarantee per-row values match
// the scalar path bitwise, so both engines discover identical ratios.
//
// Patience and fault containment retire restarts individually via an
// active-set mask: retired rows are simply not gathered into the batch,
// while the [R, n] state storage keeps its shape (no reallocation
// mid-search). Per-row work (fault injection, gradient post-processing,
// ratio evaluation) runs under per-row recover() boundaries, so a panic in
// one restart's row retires only that row; because per-row arithmetic is
// independent of the batch size, the surviving rows' trajectories are
// bitwise unchanged. A panic inside a shared batched stage cannot be
// attributed to one row and retires every active restart (ComponentError
// with Restart == -1) — still returning the best-so-far result rather than
// crashing.
func runBatchedRestarts(ctx context.Context, target *AttackTarget, cfg GradientConfig, workers int,
	improve func(restart int, ratio, sys, opt float64, x []float64, iter int),
	count func(evals, grads, lps int),
	recordFault func(*ComponentError),
	so *searchObs,
) []RestartOutcome {
	n := target.InputDim
	R := cfg.Restarts
	nSlots := 0
	if target.PS != nil {
		nSlots = len(routingFor(target.PS).slotPair)
	}
	if target.PS == nil {
		cfg.Mode = DirectAscent
	}

	// Per-restart state, row r belongs to restart r for the whole search.
	// Initialization replays runRestart's RNG streams verbatim.
	X := linalg.NewMatrix(R, n)
	for restart := 0; restart < R; restart++ {
		r := rng.New(cfg.Seed + uint64(restart)*0x9e3779b97f4a7c15)
		x := X.Row(restart)
		if restart%2 == 0 {
			for i := range x {
				x[i] = r.Float64() * target.MaxDemand * 0.5
			}
		} else {
			for i := range x {
				if r.Float64() < 0.15 {
					x[i] = r.Float64() * target.MaxDemand
				}
			}
		}
	}
	fLog := linalg.NewMatrix(R, nSlots)
	lambda := make([]float64, R)
	for r := range lambda {
		lambda[r] = cfg.LambdaInit
	}
	cTarget := cfg.ConstraintTarget
	if cTarget == 0 {
		cTarget = 1
	}
	mus := make([][]float64, R)
	for r := range mus {
		mus[r] = make([]float64, len(cfg.Constraints))
	}
	var velocity *linalg.Matrix
	if cfg.Momentum > 0 {
		velocity = linalg.NewMatrix(R, n)
	}
	active := make([]bool, R)
	bestLocal := make([]float64, R)
	stale := make([]int, R)
	evalFaults := make([]int, R)
	for r := range active {
		active[r] = true
	}
	outcomes := make([]RestartOutcome, R)
	for r := range outcomes {
		outcomes[r] = RestartOutcome{Restart: r, Stop: StopConverged}
	}
	defer func() {
		for r := range outcomes {
			outcomes[r].BestRatio = bestLocal[r]
		}
	}()
	retire := func(r int, reason StopReason, fault *ComponentError) {
		active[r] = false
		outcomes[r].Stop = reason
		outcomes[r].Fault = fault
	}
	stopActive := func(reason StopReason) {
		for r := 0; r < R; r++ {
			if active[r] {
				retire(r, reason, nil)
			}
		}
	}

	stepD := cfg.AlphaD * target.MaxDemand
	stepF := cfg.AlphaF
	stepL := cfg.AlphaL
	demS, demE := target.DemandStart, target.DemandStart+target.DemandLen
	demLen := demE - demS

	// Batch scratch, sized for the full R and re-sliced to the active count.
	Xa := linalg.NewMatrix(R, n)
	idx := make([]int, 0, R)
	demB := make([]float64, R*demLen)
	flB := make([]float64, R*nSlots)
	gDb := make([]float64, R*demLen)
	gFb := make([]float64, R*nSlots)
	cMLU := make([]float64, R)
	onesSeed := make([]float64, R)
	for i := range onesSeed {
		onesSeed[i] = 1
	}
	type evalResult struct {
		ratio, sys, opt float64
		cached          bool
		err             error
		fault           *ComponentError
	}
	evalRes := make([]evalResult, R)

	evals, grads, lps := 0, 0, 0
	defer func() { count(evals, grads, lps) }()

	for iter := 0; iter < cfg.Iters; iter++ {
		if err := ctx.Err(); err != nil {
			stopActive(ctxStopReason(err))
			return outcomes
		}
		// Deterministic fault injection happens before the batch is gathered,
		// under a per-row boundary, so a faulted row never enters this
		// iteration's batch and the surviving rows see the same batch they
		// would in a run where the faulted restart never existed.
		if cfg.FaultInjector != nil {
			for r := 0; r < R; r++ {
				if !active[r] {
					continue
				}
				stage := "fault-injector"
				row := r
				cerr := contained(row, iter, &stage, func() {
					if err := cfg.FaultInjector(row, iter, X.Row(row)); err != nil {
						panic(err)
					}
				})
				if cerr != nil {
					recordFault(cerr)
					retire(r, StopFaulted, cerr)
				}
			}
		}
		idx = idx[:0]
		for r := 0; r < R; r++ {
			if active[r] {
				idx = append(idx, r)
			}
		}
		A := len(idx)
		if A == 0 {
			break
		}
		for j, r := range idx {
			copy(Xa.Row(j), X.Row(r))
		}
		xa := &linalg.Matrix{Rows: A, Cols: n, Data: Xa.Data[:A*n]}
		ones := &linalg.Matrix{Rows: A, Cols: 1, Data: onesSeed[:A]}

		for inner := 0; inner < cfg.T; inner++ {
			// Shared batched sweeps: a panic here spans all active rows and
			// cannot be attributed, so it faults every remaining restart (the
			// result still carries everything found so far).
			var G *linalg.Matrix
			var ctxErr error
			stage := "pipeline-batch-vjp"
			cerr := contained(-1, iter, &stage, func() {
				G, ctxErr = target.Pipeline.BatchVJPCtx(ctx, xa, ones)
				if ctxErr != nil {
					return
				}
				grads += A
				if cfg.Mode == Lagrangian {
					for j, r := range idx {
						copy(demB[j*demLen:(j+1)*demLen], xa.Row(j)[demS:demE])
						copy(flB[j*nSlots:(j+1)*nSlots], fLog.Row(r))
					}
					stage = "constraint-mlu"
					target.constraintMLUBatch(demB[:A*demLen], flB[:A*nSlots], A,
						gDb[:A*demLen], gFb[:A*nSlots], cMLU[:A], onesSeed[:A])
				}
			})
			if ctxErr != nil {
				stopActive(ctxStopReason(ctxErr))
				return outcomes
			}
			if cerr != nil {
				recordFault(cerr)
				for _, r := range idx {
					if active[r] {
						retire(r, StopFaulted, cerr)
					}
				}
				return outcomes
			}
			for j, r := range idx {
				if !active[r] {
					continue
				}
				jj, rr := j, r
				stage := "row-update"
				cerr := contained(rr, iter, &stage, func() {
					gNorm := normalizeInPlace(G.Row(jj))
					if cfg.Mode == Lagrangian {
						dNorm := normalizeInPlace(gDb[jj*demLen : (jj+1)*demLen])
						for i := demS; i < demE; i++ {
							gNorm[i] += lambda[rr] * dNorm[i-demS]
						}
						fNorm := normalizeInPlace(gFb[jj*nSlots : (jj+1)*nSlots])
						fl := fLog.Row(rr)
						for i := range fl {
							fl[i] += stepF * lambda[rr] * fNorm[i]
						}
					}
					if len(cfg.Constraints) > 0 {
						stage = "input-constraints"
						applyConstraints(cfg.Constraints, mus[rr], xa.Row(jj), gNorm, stepL)
					}
					stage = "ascent-step"
					if velocity != nil {
						v := velocity.Row(rr)
						for i := range v {
							v[i] = cfg.Momentum*v[i] + gNorm[i]
						}
						gNorm = v
					}
					x := xa.Row(jj)
					for i := range x {
						x[i] += stepD * gNorm[i]
						if x[i] < 0 {
							x[i] = 0
						}
						if x[i] > target.MaxDemand {
							x[i] = target.MaxDemand
						}
					}
				})
				if cerr != nil {
					recordFault(cerr)
					retire(r, StopFaulted, cerr)
				}
			}
		}
		if cfg.Mode == Lagrangian {
			for j, r := range idx {
				if !active[r] {
					continue
				}
				lambda[r] -= stepL * (cMLU[j] - cTarget)
			}
		}
		// Rows that faulted mid-iteration keep their pre-iteration state in X
		// (their partially updated Xa row is discarded).
		for j, r := range idx {
			if !active[r] {
				continue
			}
			copy(X.Row(r), xa.Row(j))
			outcomes[r].Iters = iter + 1
			so.steps[r].Inc()
		}

		if (iter+1)%cfg.EvalEvery == 0 || iter == cfg.Iters-1 {
			// True-ratio scoring (LP + scalar pipeline eval) is per-restart
			// work with no batch structure; fan it out across workers. Each
			// job runs under its own recover() boundary so an eval panic
			// faults one row, not the pool.
			w := workers
			if w > A {
				w = A
			}
			var wg sync.WaitGroup
			jobs := make(chan int)
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range jobs {
						r := idx[j]
						if !active[r] {
							continue
						}
						var er evalResult
						stage := "ratio-eval"
						er.fault = contained(r, iter, &stage, func() {
							er.ratio, er.sys, er.opt, er.cached, er.err = target.ratioCachedCtx(ctx, cfg.EvalCache, X.Row(r))
						})
						evalRes[j] = er
					}
				}()
			}
			for j := range idx {
				jobs <- j
			}
			close(jobs)
			wg.Wait()
			for j, r := range idx {
				if !active[r] {
					continue
				}
				er := evalRes[j]
				if !er.cached {
					evals++
					lps++
				}
				if er.fault != nil {
					recordFault(er.fault)
					retire(r, StopFaulted, er.fault)
					continue
				}
				if er.err != nil {
					if ce := evalCtxErr(ctx, er.err); ce != nil {
						stopActive(ctxStopReason(ce))
						return outcomes
					}
					// Step rejected: same semantics as the scalar engine.
					fault := &ComponentError{Restart: r, Iter: iter, Stage: "ratio-eval", Err: er.err}
					recordFault(fault)
					so.rejects[r].Inc()
					evalFaults[r]++
					if evalFaults[r] >= maxConsecutiveEvalFaults {
						retire(r, StopFaulted, fault)
						continue
					}
					stale[r]++
					if cfg.Patience > 0 && stale[r] >= cfg.Patience {
						retire(r, StopPatience, nil)
					}
					continue
				}
				evalFaults[r] = 0
				if er.ratio > bestLocal[r] {
					bestLocal[r] = er.ratio
					stale[r] = 0
					improve(r, er.ratio, er.sys, er.opt, X.Row(r), iter)
				} else {
					stale[r]++
					if cfg.Patience > 0 && stale[r] >= cfg.Patience {
						retire(r, StopPatience, nil)
					}
				}
			}
		}
	}
	return outcomes
}

// normalizeInPlace scales a gradient to unit infinity-norm (sign-preserving)
// so that step sizes have a consistent meaning across pipeline scales.
// Returns the slice for convenience.
func normalizeInPlace(g []float64) []float64 {
	m := 0.0
	for _, v := range g {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	if m == 0 {
		return g
	}
	inv := 1 / m
	for i := range g {
		g[i] *= inv
	}
	return g
}
