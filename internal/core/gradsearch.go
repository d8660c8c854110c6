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
	// Workers caps restart parallelism (0 = Restarts): the number of
	// concurrent one-restart groups, or of true-ratio scorers when all
	// restarts advance as one group (see GradientSearchContext).
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
	// EvalCache, when non-nil, memoizes true-ratio scoring (hash of the
	// quantized input → ratio/sys/opt) across restarts and searches, so
	// lock-step batches and near-converged restarts stop re-solving the
	// optimal-MLU LP at coincident points. Cached evaluations are not
	// counted in Evals/LPEvals. Nil disables memoization.
	EvalCache *EvalCache
	// Obs, when non-nil, receives search telemetry: per-stage pipeline
	// timings (see Pipeline.Instrument), the step/reject/fault counters
	// summed over restarts ("search.steps" etc.; per-restart detail is in
	// SearchResult.Restarts), LP solve latency, solve and pivot counters from
	// the traffic-engineering solver, and the search-level improvement
	// count. The registry's snapshot is attached to the result as
	// SearchResult.Telemetry. Nil keeps every hot path on its
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
	// Executor, when non-nil, receives one task per restart (a one-restart
	// group) instead of the search spawning its own bounded worker
	// goroutines — the analyzer daemon's work-stealing pool rides this to
	// interleave restarts from many concurrent searches over one set of
	// machine cores. Run must execute the task exactly once (on any
	// goroutine, at any later time); the search blocks until all its tasks
	// complete. Per-restart trajectories do not depend on grouping or
	// scheduling, so the result is bitwise the same as without an Executor;
	// Workers is moot: parallelism is the pool's.
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

// searchObs holds the engine's pre-resolved counter handles: registry
// lookups happen once per search, never inside the iteration loops. The
// names are per search, not per restart, so a registry shared by many
// searches (the daemon's) holds a bounded set of series whatever restart
// counts its requests ask for; per-restart detail is in
// SearchResult.Restarts. Built from a nil registry every handle is nil, and
// the nil-receiver no-op contract of the obs package makes every increment
// free.
type searchObs struct {
	// steps counts completed outer iterations, rejects scoring steps
	// rejected by an evaluation error, and faults contained failures
	// (including shared-stage faults with Restart == -1).
	steps, rejects, faults *obs.Counter
	// improvements counts global best-ratio improvements.
	improvements *obs.Counter
}

func newSearchObs(reg *obs.Registry) searchObs {
	if reg == nil {
		// All handles stay nil; every increment is a nil-receiver no-op.
		return searchObs{}
	}
	return searchObs{
		steps:        reg.Counter("search.steps"),
		rejects:      reg.Counter("search.rejects"),
		faults:       reg.Counter("search.faults"),
		improvements: reg.Counter("search.improvements"),
	}
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
//
// The restarts are split into restart groups, each a set of restarts that
// advance in lock-step as one [rows, n] batch (see runGroup). The grouping
// follows from the inputs alone: with an Executor every restart is its own
// group and one pool task; without one, a pipeline whose every stage
// batches natively (Pipeline.BatchCapable) runs all restarts as one group,
// so the DNN sweeps become matrix–matrix kernels; any other pipeline runs
// one-restart groups on at most Workers goroutines. A restart's trajectory
// does not depend on its group, so neither does the result.
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

	res := &SearchResult{Method: "gradient-based (" + cfg.Mode.String() + ")"}
	s := newSearchRun(ctx, target, cfg, res)
	if cfg.Executor == nil && target.Pipeline.BatchCapable() {
		all := make([]int, cfg.Restarts)
		for r := range all {
			all[r] = r
		}
		s.runGroup(all, workers)
	} else {
		exec := cfg.Executor
		if exec == nil {
			exec = make(boundedExecutor, workers)
		}
		var wg sync.WaitGroup
		wg.Add(cfg.Restarts)
		for r := 0; r < cfg.Restarts; r++ {
			exec.Run(func() {
				defer wg.Done()
				s.runGroup([]int{r}, 1)
			})
		}
		wg.Wait()
	}
	for r := range s.outcomes {
		s.outcomes[r].BestRatio = s.bestLocal[r]
	}
	res.Restarts = s.outcomes
	res.Elapsed = time.Since(s.start)
	res.foldImprovements(s.logs, s.so.improvements)
	res.StopReason = aggregateStop(ctx, res.Restarts)
	if cfg.Obs != nil {
		if target.PS != nil {
			delta := te.SolverStatsFor(target.PS).Sub(lpBefore)
			cfg.Obs.Counter("lp.solves").Add(delta.Solves)
			cfg.Obs.Counter("lp.cold_solves").Add(delta.ColdSolves)
			cfg.Obs.Counter("lp.pivots").Add(delta.Pivots)
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

// boundedExecutor runs each task on its own goroutine, at most cap(sem) at
// a time.
type boundedExecutor chan struct{}

// Run implements Executor.
func (sem boundedExecutor) Run(task func()) {
	go func() {
		sem <- struct{}{}
		defer func() { <-sem }()
		task()
	}()
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

// searchRun is one GradientSearch in flight. Per-restart state is stored
// by row: row r of every matrix and element r of every slice belong to
// restart r for the whole search. A restart group reads and writes only its
// own rows, so groups run concurrently without locking; the result tallies
// and the improvement logs are shared and take mu.
type searchRun struct {
	ctx    context.Context
	target *AttackTarget
	cfg    GradientConfig
	so     searchObs
	start  time.Time

	x        *linalg.Matrix // [R, n] iterates
	fLog     *linalg.Matrix // [R, nSlots] split logits of Eq. 4's f
	velocity *linalg.Matrix // [R, n] momentum; nil without Momentum
	lambda   []float64
	mus      [][]float64 // per-restart input-constraint multipliers
	// active masks the restarts still running; retired rows keep their
	// storage and are simply not gathered into the batch.
	active            []bool
	bestLocal         []float64
	stale, evalFaults []int
	outcomes          []RestartOutcome

	mu       sync.Mutex
	res      *SearchResult
	logs     []restartLog
	liveBest float64
}

// newSearchRun initializes every restart's row. Restart r draws its start
// from its own RNG stream, Seed + r·golden, so a start does not depend on
// which group or goroutine runs it. Mixing dense and sparse starts
// diversifies restarts: sparse starts match the adversarial demand shape of
// Figure 5.
func newSearchRun(ctx context.Context, target *AttackTarget, cfg GradientConfig, res *SearchResult) *searchRun {
	if target.PS == nil {
		// Non-TE target: no routing substrate, so no feasibility term.
		cfg.Mode = DirectAscent
	}
	R, n := cfg.Restarts, target.InputDim
	nSlots := 0
	if target.PS != nil {
		nSlots = len(routingFor(target.PS).slotPair)
	}
	s := &searchRun{
		ctx: ctx, target: target, cfg: cfg, so: newSearchObs(cfg.Obs), start: time.Now(),
		x:          linalg.NewMatrix(R, n),
		fLog:       linalg.NewMatrix(R, nSlots),
		lambda:     make([]float64, R),
		mus:        make([][]float64, R),
		active:     make([]bool, R),
		bestLocal:  make([]float64, R),
		stale:      make([]int, R),
		evalFaults: make([]int, R),
		outcomes:   make([]RestartOutcome, R),
		res:        res,
		logs:       make([]restartLog, R),
	}
	if cfg.Momentum > 0 {
		s.velocity = linalg.NewMatrix(R, n)
	}
	for r := 0; r < R; r++ {
		rg := rng.New(cfg.Seed + uint64(r)*0x9e3779b97f4a7c15)
		x := s.x.Row(r)
		if r%2 == 0 {
			for i := range x {
				x[i] = rg.Float64() * target.MaxDemand * 0.5
			}
		} else {
			for i := range x {
				if rg.Float64() < 0.15 {
					x[i] = rg.Float64() * target.MaxDemand
				}
			}
		}
		s.lambda[r] = cfg.LambdaInit
		s.mus[r] = make([]float64, len(cfg.Constraints))
		s.active[r] = true
		s.outcomes[r] = RestartOutcome{Restart: r, Stop: StopConverged}
	}
	return s
}

// improve logs restart r's new local best, the point at its current row.
// Improvements are folded into Best*/Trace only after the groups join
// (foldImprovements), so the result does not depend on the order concurrent
// groups report in; only the live OnImprove stream follows arrival order.
func (s *searchRun) improve(r, iter int, ratio, sys, opt float64) {
	at := time.Since(s.start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logs[r].record(improvement{restart: r, iter: iter, ratio: ratio, sys: sys, opt: opt, at: at}, s.x.Row(r))
	if ratio > s.liveBest {
		s.liveBest = ratio
		if s.cfg.OnImprove != nil {
			s.cfg.OnImprove(ratio, sys, opt, iter, at)
		}
	}
}

// count adds a group's evaluation tallies to the result.
func (s *searchRun) count(evals, grads, lps int) {
	s.mu.Lock()
	s.res.Evals += evals
	s.res.GradEvals += grads
	s.res.LPEvals += lps
	s.mu.Unlock()
}

// recordFault adds a contained failure to the result.
func (s *searchRun) recordFault(ce *ComponentError) {
	s.mu.Lock()
	s.res.FaultCount++
	if len(s.res.Faults) < maxRecordedFaults {
		s.res.Faults = append(s.res.Faults, ce)
	}
	s.mu.Unlock()
	s.so.faults.Inc()
}

// retire stops restart r for reason.
func (s *searchRun) retire(r int, reason StopReason, fault *ComponentError) {
	s.active[r] = false
	s.outcomes[r].Stop = reason
	s.outcomes[r].Fault = fault
}

// evalResult is one row's true-ratio scoring.
type evalResult struct {
	ratio, sys, opt float64
	cached          bool
	err             error
	fault           *ComponentError
}

// score evaluates restart r's true ratio into er, under the row's own
// recover() boundary so an oracle panic faults only that row. Retired rows
// are skipped.
func (s *searchRun) score(r, iter int, er *evalResult) {
	if !s.active[r] {
		return
	}
	*er = evalResult{}
	stage := "ratio-eval"
	er.fault = contained(r, iter, &stage, func() {
		er.ratio, er.sys, er.opt, er.cached, er.err = s.target.ratioCachedCtx(s.ctx, s.cfg.EvalCache, s.x.Row(r))
	})
}

// runGroup executes the Eq. 5 trajectories of the restarts in rows in
// lock-step: one [A, n] batch of the A still-active rows per inner step, so
// the pipeline sweep and the constraint term each run once per step for the
// whole group. Every row's arithmetic — normalization, multiplier updates,
// eval cadence, Patience — is its own, and the batched stages compute each
// row bitwise as a one-row batch would, so a restart's trajectory does not
// depend on its group.
//
// Patience and fault containment retire rows individually via the active
// mask. Per-row work (fault injection, gradient post-processing, ratio
// evaluation) runs under per-row recover() boundaries, so a panic in one
// row retires only that row. A panic inside a shared stage retires every
// active row of the group; it is attributed to the row of a one-row group
// and to Restart == -1 otherwise. Either way the search returns its
// best-so-far result rather than crashing. True-ratio scoring fans out
// over up to workers goroutines; a one-row group scores inline.
func (s *searchRun) runGroup(rows []int, workers int) {
	ctx, target, cfg := s.ctx, s.target, s.cfg
	n, nSlots := s.x.Cols, s.fLog.Cols
	G := len(rows)
	owner := -1
	if G == 1 {
		owner = rows[0]
	}
	cTarget := cfg.ConstraintTarget
	if cTarget == 0 {
		cTarget = 1
	}
	// Step sizes are relative to the demand scale so that alpha=0.01 moves
	// demands by ~1% of the box per step, matching the paper's convention.
	stepD := cfg.AlphaD * target.MaxDemand
	stepF := cfg.AlphaF
	stepL := cfg.AlphaL
	demS, demE := target.DemandStart, target.DemandStart+target.DemandLen
	demLen := demE - demS

	// Batch scratch, sized for the whole group and re-sliced to the active
	// count.
	xa := linalg.NewMatrix(G, n)
	idx := make([]int, 0, G)
	demB := make([]float64, G*demLen)
	flB := make([]float64, G*nSlots)
	gDb := make([]float64, G*demLen)
	gFb := make([]float64, G*nSlots)
	cMLU := make([]float64, G)
	onesSeed := make([]float64, G)
	for i := range onesSeed {
		onesSeed[i] = 1
	}
	evalRes := make([]evalResult, G)
	xb := &linalg.Matrix{Cols: n}   // the active rows of xa
	ones := &linalg.Matrix{Cols: 1} // the active rows' unit cotangents

	evals, grads, lps := 0, 0, 0
	defer func() { s.count(evals, grads, lps) }()
	retireActive := func(reason StopReason, fault *ComponentError) {
		for _, r := range rows {
			if s.active[r] {
				s.retire(r, reason, fault)
			}
		}
	}

	for iter := 0; iter < cfg.Iters; iter++ {
		if err := ctx.Err(); err != nil {
			retireActive(ctxStopReason(err), nil)
			return
		}
		// Fault injection happens before the batch is gathered, under the
		// row's own boundary, so a faulted row never enters this iteration's
		// batch and the surviving rows see the batch they would see in a run
		// where the faulted restart never existed.
		idx = idx[:0]
		for _, r := range rows {
			if !s.active[r] {
				continue
			}
			if cfg.FaultInjector != nil {
				stage := "fault-injector"
				cerr := contained(r, iter, &stage, func() {
					if err := cfg.FaultInjector(r, iter, s.x.Row(r)); err != nil {
						panic(err)
					}
				})
				if cerr != nil {
					s.recordFault(cerr)
					s.retire(r, StopFaulted, cerr)
					continue
				}
			}
			idx = append(idx, r)
		}
		A := len(idx)
		if A == 0 {
			break
		}
		for j, r := range idx {
			copy(xa.Row(j), s.x.Row(r))
		}
		xb.Rows, xb.Data = A, xa.Data[:A*n]
		ones.Rows, ones.Data = A, onesSeed[:A]

		for inner := 0; inner < cfg.T; inner++ {
			// Shared stages: the gradient of the system's MLU with respect
			// to the full input, assembled stage by stage via the chain
			// rule, and the Eq. 4 constraint term.
			var g *linalg.Matrix
			var ctxErr error
			stage := "pipeline-vjp"
			cerr := contained(owner, iter, &stage, func() {
				g, ctxErr = target.Pipeline.BatchVJPCtx(ctx, xb, ones)
				if ctxErr != nil {
					return
				}
				grads += A
				if cfg.Mode == Lagrangian {
					for j, r := range idx {
						copy(demB[j*demLen:(j+1)*demLen], xb.Row(j)[demS:demE])
						copy(flB[j*nSlots:(j+1)*nSlots], s.fLog.Row(r))
					}
					stage = "constraint-mlu"
					target.constraintMLUBatch(demB[:A*demLen], flB[:A*nSlots], A,
						gDb[:A*demLen], gFb[:A*nSlots], cMLU[:A], onesSeed[:A])
				}
			})
			if ctxErr != nil {
				retireActive(ctxStopReason(ctxErr), nil)
				return
			}
			if cerr != nil {
				s.recordFault(cerr)
				retireActive(StopFaulted, cerr)
				return
			}
			for j, r := range idx {
				if !s.active[r] {
					continue
				}
				stage := "row-update"
				cerr := contained(r, iter, &stage, func() {
					gNorm := normalizeInPlace(g.Row(j))
					if cfg.Mode == Lagrangian {
						// Ascend d on  M_adv + λ·(MLU(d,f)−1).
						dNorm := normalizeInPlace(gDb[j*demLen : (j+1)*demLen])
						for i := demS; i < demE; i++ {
							gNorm[i] += s.lambda[r] * dNorm[i-demS]
						}
						// Ascend f on  λ·MLU(d,f).
						fNorm := normalizeInPlace(gFb[j*nSlots : (j+1)*nSlots])
						fl := s.fLog.Row(r)
						for i := range fl {
							fl[i] += stepF * s.lambda[r] * fNorm[i]
						}
					}
					if len(cfg.Constraints) > 0 {
						stage = "input-constraints"
						applyConstraints(cfg.Constraints, s.mus[r], xb.Row(j), gNorm, stepL)
					}
					stage = "ascent-step"
					if s.velocity != nil {
						v := s.velocity.Row(r)
						for i := range v {
							v[i] = cfg.Momentum*v[i] + gNorm[i]
						}
						gNorm = v
					}
					x := xb.Row(j)
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
					s.recordFault(cerr)
					s.retire(r, StopFaulted, cerr)
				}
			}
		}
		// Descend λ on the constraint violation (outer minimization), then
		// commit the step. Rows that faulted mid-iteration keep their
		// pre-iteration state (their partially updated batch row is
		// discarded).
		for j, r := range idx {
			if !s.active[r] {
				continue
			}
			if cfg.Mode == Lagrangian {
				s.lambda[r] -= stepL * (cMLU[j] - cTarget)
			}
			copy(s.x.Row(r), xb.Row(j))
			s.outcomes[r].Iters = iter + 1
			s.so.steps.Inc()
		}

		if (iter+1)%cfg.EvalEvery != 0 && iter != cfg.Iters-1 {
			continue
		}
		// True-ratio scoring (LP or oracle plus a scalar pipeline eval) is
		// per-row work with no batch structure.
		if w := min(workers, A); w <= 1 {
			for j, r := range idx {
				s.score(r, iter, &evalRes[j])
			}
		} else {
			var wg sync.WaitGroup
			jobs := make(chan int)
			for k := 0; k < w; k++ {
				wg.Add(1)
				go func(iter int) {
					defer wg.Done()
					for j := range jobs {
						s.score(idx[j], iter, &evalRes[j])
					}
				}(iter)
			}
			for j := range idx {
				jobs <- j
			}
			close(jobs)
			wg.Wait()
		}
		for j, r := range idx {
			if !s.active[r] {
				continue
			}
			er := evalRes[j]
			if !er.cached {
				evals++
				lps++
			}
			if er.fault != nil {
				s.recordFault(er.fault)
				s.retire(r, StopFaulted, er.fault)
				continue
			}
			if er.err != nil {
				if ce := evalCtxErr(ctx, er.err); ce != nil {
					retireActive(ctxStopReason(ce), nil)
					return
				}
				// A non-optimal LP status (or any other eval failure)
				// mid-search rejects this scoring step instead of
				// propagating a garbage MLU into the search: the trajectory
				// continues from the same iterate, and only persistent
				// failure retires the restart.
				fault := &ComponentError{Restart: r, Iter: iter, Stage: "ratio-eval", Err: er.err}
				s.recordFault(fault)
				s.so.rejects.Inc()
				s.evalFaults[r]++
				if s.evalFaults[r] >= maxConsecutiveEvalFaults {
					s.retire(r, StopFaulted, fault)
					continue
				}
				s.stale[r]++
				if cfg.Patience > 0 && s.stale[r] >= cfg.Patience {
					s.retire(r, StopPatience, nil)
				}
				continue
			}
			s.evalFaults[r] = 0
			if er.ratio > s.bestLocal[r] {
				s.bestLocal[r] = er.ratio
				s.stale[r] = 0
				s.improve(r, iter, er.ratio, er.sys, er.opt)
			} else {
				s.stale[r]++
				if cfg.Patience > 0 && s.stale[r] >= cfg.Patience {
					s.retire(r, StopPatience, nil)
				}
			}
		}
	}
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
