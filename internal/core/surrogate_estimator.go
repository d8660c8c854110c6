package core

import (
	"context"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// SurrogateGradConfig configures WithSurrogateGradient: the online surrogate
// itself plus the trust/verify loop that decides, per VJP, whether the
// learned gradient is good enough to replace finite-difference probing.
type SurrogateGradConfig struct {
	// Surrogate configures the online learner (network, replay buffer,
	// warmup). Its Warmup field is the number of true observations before
	// the surrogate may start earning trust.
	Surrogate SurrogateConfig
	// FDStep is the probe step of the finite-difference fallback estimator
	// (0 = 1e-4). The fallback preserves the sparse incremental probe fast
	// path when the wrapped component advertises SparseProbeEvaluator.
	FDStep float64
	// DisagreeTol is the relative L∞ error between the surrogate's
	// prediction and the true output above which a verification counts as a
	// disagreement (0 = 0.05).
	DisagreeTol float64
	// TrustWindow is how many consecutive agreeing verifications the
	// surrogate needs before its VJPs are served in place of FD probing
	// (0 = 4). Trust is EARNED, never assumed: a freshly constructed or
	// never-trained surrogate serves no gradients, so the worst case is
	// exactly today's sparse-FD path.
	TrustWindow int
	// DisagreeWindow is how many consecutive disagreeing verifications
	// demote a trusted surrogate back to FD probing (0 = 2).
	DisagreeWindow int
	// VerifyWindow is how many consecutive true-ratio evaluations without a
	// new best (rejected steps, reported through the EvalCache observation
	// hook) demote a trusted surrogate back to FD probing (0 = 12).
	VerifyWindow int
	// GuidedBlock is the probe block size of the trusted guided-sparse VJP:
	// coordinates are probed in descending order of the surrogate gradient's
	// magnitude, one block at a time, and the sweep stops after the first
	// block whose probes all contribute exactly zero (0 = 64). Smaller blocks
	// stop earlier on sharply sparse gradients; n/GuidedBlock is the
	// worst-case overhead of a misranked support.
	GuidedBlock int
}

// DefaultSurrogateGradConfig returns a workable trust/verify configuration.
// The learner trains harder than the bare DefaultSurrogateConfig (the
// estimator folds training into evaluations the search already pays for, so
// the extra SGD steps are cheap next to true probes), and the disagreement
// tolerance is loose: the guided-sparse serve only uses the surrogate to RANK
// probe coordinates, so a moderately accurate surrogate already buys exact
// gradients — mis-trust costs extra probe blocks, never wrong derivatives.
func DefaultSurrogateGradConfig(seed uint64) SurrogateGradConfig {
	sur := DefaultSurrogateConfig(seed)
	sur.Hidden = []int{128}
	sur.BufferSize = 2048
	sur.BatchSize = 32
	sur.TrainSteps = 32
	sur.Warmup = 16
	return SurrogateGradConfig{
		Surrogate:      sur,
		FDStep:         1e-4,
		DisagreeTol:    0.2,
		TrustWindow:    2,
		DisagreeWindow: 8,
		VerifyWindow:   12,
		GuidedBlock:    64,
	}
}

// Estimator modes: FD probing (untrusted) vs surrogate-served VJPs.
const (
	surrogateModeProbing int32 = iota
	surrogateModeTrusted
)

// SurrogateStats is a snapshot of the estimator's counters.
type SurrogateStats struct {
	// TrueEvals counts true evaluations of the wrapped component: forward
	// sweeps, 2n per full finite-difference VJP row, and 2·probed per
	// guided-sparse row.
	TrueEvals int64
	// EvalsSaved counts the true evaluations guided-sparse VJPs avoided
	// versus full FD probing (2·(n − probed) per guided row).
	EvalsSaved int64
	// SurrogateVJPs counts guided-sparse rows (the surrogate ranked the
	// probes); FDVJPs counts full finite-difference rows.
	SurrogateVJPs, FDVJPs int64
	// VerifyAccepts / VerifyRejects count post-warmup prediction checks
	// against true outputs at or beyond DisagreeTol.
	VerifyAccepts, VerifyRejects int64
	// StepRejects counts true-ratio evaluations that failed to improve the
	// best (via the EvalCache observation hook).
	StepRejects int64
	// Fallbacks counts trusted→probing demotions; Promotions counts
	// probing→trusted transitions (the first is initial trust, the rest are
	// re-earned trust).
	Fallbacks, Promotions int64
	// Observations is how many samples the surrogate has seen; Warm reports
	// whether warmup has completed; Trusted whether VJPs are currently
	// surrogate-served.
	Observations  int64
	Warm, Trusted bool
}

// surrogateObsHandles caches resolved telemetry instruments so the hot path
// pays one atomic load, mirroring the opaque routing stage's pattern.
type surrogateObsHandles struct {
	trueEvals, evalsSaved    *obs.Counter
	vjpSurrogate, vjpFD      *obs.Counter
	accepts, rejects         *obs.Counter
	stepRejects              *obs.Counter
	fallbacks, promotions    *obs.Counter
	state                    *obs.Gauge
	trainLoss, disagreements *obs.Histogram
}

// SurrogateEstimator closes the §6 surrogate loop inside the search: every
// true evaluation the search performs feeds the online surrogate's replay
// buffer, and once the surrogate has earned trust the O(n) finite-difference
// sweep is restricted to the coordinates that can matter — the prober's
// certified support when it implements SupportCertifier (bitwise identical
// to the full FD row by the certificate's guarantee), or the surrogate's
// top-ranked coordinates otherwise (in blocks, stopping after the first
// block that contributes nothing). Every derivative the search consumes is
// therefore a true central difference; trust only decides where probes are
// spent. On max-structured objectives like MLU, where the true gradient's
// support is the coordinates crossing the bottleneck, a restricted row that
// covers the support equals the full FD row at a fraction of the
// evaluations.
//
// Each forward sweep the pipeline runs before a VJP doubles as the
// verification eval — the surrogate's pre-training prediction is scored
// against the true output at zero extra cost. A configurable window of
// consecutive disagreements (or of rejected search steps, reported through
// the EvalCache observation hook) falls back to full sparse-FD probing until
// the surrogate re-earns trust, so the worst case degrades to today's path,
// never below it.
type SurrogateEstimator struct {
	inner Component
	sur   *onlineSurrogate
	fd    *fdComponent
	cfg   SurrogateGradConfig
	inDim int

	mode atomic.Int32 // surrogateModeProbing | surrogateModeTrusted

	mu          sync.Mutex // guards the trust counters below
	agreeRun    int
	disagreeRun int
	staleRun    int
	bestRatio   float64
	haveBest    bool

	// supports caches recent rows' true gradient supports (indices of
	// nonzero central differences), keyed by the base point they were
	// measured at. On max-structured objectives the support is the set of
	// coordinates crossing the bottleneck, which changes only when the
	// bottleneck does — so the nearest cached support predicts this row's
	// almost perfectly. Concurrent restarts share one estimator but walk
	// different trajectories; nearest-point lookup keeps each restart on
	// its own entry (a wrong pick only costs extra probes, never accuracy).
	supMu    sync.Mutex
	supports []supportEntry

	trueEvals     atomic.Int64
	evalsSaved    atomic.Int64
	surrogateVJPs atomic.Int64
	fdVJPs        atomic.Int64
	verifyAccepts atomic.Int64
	verifyRejects atomic.Int64
	stepRejects   atomic.Int64
	fallbacks     atomic.Int64
	promotions    atomic.Int64

	obs atomic.Pointer[surrogateObsHandles]
}

// WithSurrogateGradient wraps an opaque component of the given input/output
// dimensions with the surrogate-guided estimator. The wrapper is safe for
// concurrent use: observations from all goroutines feed one shared
// surrogate, and the trust state is shared across restarts.
func WithSurrogateGradient(c Component, inDim, outDim int, cfg SurrogateGradConfig) *SurrogateEstimator {
	if cfg.FDStep <= 0 {
		cfg.FDStep = 1e-4
	}
	if cfg.DisagreeTol <= 0 {
		cfg.DisagreeTol = 0.05
	}
	if cfg.TrustWindow <= 0 {
		cfg.TrustWindow = 4
	}
	if cfg.DisagreeWindow <= 0 {
		cfg.DisagreeWindow = 2
	}
	if cfg.VerifyWindow <= 0 {
		cfg.VerifyWindow = 12
	}
	if cfg.GuidedBlock <= 0 {
		cfg.GuidedBlock = 64
	}
	return &SurrogateEstimator{
		inner: c,
		sur:   newOnlineSurrogate(c, inDim, outDim, cfg.Surrogate),
		fd:    WithFiniteDiff(c, cfg.FDStep).(*fdComponent),
		cfg:   cfg,
		inDim: inDim,
	}
}

// Name implements Component.
func (e *SurrogateEstimator) Name() string { return e.inner.Name() + "+surrogate-grad" }

// Instrument implements Instrumentable: it resolves the surrogate.* handles
// once and forwards (de)instrumentation to the wrapped component.
func (e *SurrogateEstimator) Instrument(reg *obs.Registry) {
	if in, ok := e.inner.(Instrumentable); ok {
		in.Instrument(reg)
	}
	if reg == nil {
		e.obs.Store(nil)
		return
	}
	e.obs.Store(&surrogateObsHandles{
		trueEvals:     reg.Counter("surrogate.true_evals"),
		evalsSaved:    reg.Counter("surrogate.evals_saved"),
		vjpSurrogate:  reg.Counter("surrogate.vjp.surrogate"),
		vjpFD:         reg.Counter("surrogate.vjp.fd"),
		accepts:       reg.Counter("surrogate.verify.accepts"),
		rejects:       reg.Counter("surrogate.verify.rejects"),
		stepRejects:   reg.Counter("surrogate.step_rejects"),
		fallbacks:     reg.Counter("surrogate.fallbacks"),
		promotions:    reg.Counter("surrogate.promotions"),
		state:         reg.Gauge("surrogate.state"),
		trainLoss:     reg.Histogram("surrogate.train.loss"),
		disagreements: reg.Histogram("surrogate.disagreement"),
	})
	e.publishState()
}

// publishState mirrors the trust mode into the state gauge: 0 probing (FD),
// 1 trusted (surrogate-served VJPs).
func (e *SurrogateEstimator) publishState() {
	if h := e.obs.Load(); h != nil {
		h.state.Set(float64(e.mode.Load()))
	}
}

// Forward implements Component: it evaluates the TRUE component, feeds the
// observation (with its pre-training prediction error) to the surrogate, and
// advances the trust state machine. The pipeline's forward sweep calls this
// right before each VJP, so verification rides evaluations the search
// already pays for.
func (e *SurrogateEstimator) Forward(x []float64) []float64 {
	y := e.inner.Forward(x)
	e.trueEvals.Add(1)
	relErr, warm := e.sur.observeErr(x, y)
	h := e.obs.Load()
	if h != nil {
		h.trueEvals.Inc()
		h.trainLoss.Observe(e.sur.trainLoss())
	}
	if !warm {
		return y
	}
	if h != nil {
		h.disagreements.Observe(relErr)
	}
	if relErr <= e.cfg.DisagreeTol {
		e.verifyAccepts.Add(1)
		if h != nil {
			h.accepts.Inc()
		}
		e.mu.Lock()
		e.disagreeRun = 0
		if e.mode.Load() == surrogateModeProbing {
			e.agreeRun++
			if e.agreeRun >= e.cfg.TrustWindow {
				e.promoteLocked(h)
			}
		}
		e.mu.Unlock()
	} else {
		e.verifyRejects.Add(1)
		if h != nil {
			h.rejects.Inc()
		}
		e.mu.Lock()
		e.agreeRun = 0
		if e.mode.Load() == surrogateModeTrusted {
			e.disagreeRun++
			if e.disagreeRun >= e.cfg.DisagreeWindow {
				e.demoteLocked(h)
			}
		}
		e.mu.Unlock()
	}
	return y
}

// promoteLocked flips probing → trusted (mu held).
func (e *SurrogateEstimator) promoteLocked(h *surrogateObsHandles) {
	e.mode.Store(surrogateModeTrusted)
	e.agreeRun, e.disagreeRun, e.staleRun = 0, 0, 0
	e.promotions.Add(1)
	if h != nil {
		h.promotions.Inc()
		h.state.Set(float64(surrogateModeTrusted))
	}
}

// demoteLocked flips trusted → probing (mu held).
func (e *SurrogateEstimator) demoteLocked(h *surrogateObsHandles) {
	e.mode.Store(surrogateModeProbing)
	e.agreeRun, e.disagreeRun, e.staleRun = 0, 0, 0
	e.fallbacks.Add(1)
	if h != nil {
		h.fallbacks.Inc()
		h.state.Set(float64(surrogateModeProbing))
	}
}

// ObserveTrueEval implements TrueEvalObserver: the search reports every
// fresh true-ratio evaluation (at EvalCache insert time, so cache hits are
// never double-counted). A run of consecutive evaluations that fail to
// improve the best ratio means the surrogate's directions stopped paying
// off — after VerifyWindow of them a trusted surrogate is demoted back to
// FD probing.
func (e *SurrogateEstimator) ObserveTrueEval(x []float64, ratio, sys, opt float64) {
	h := e.obs.Load()
	e.mu.Lock()
	if !e.haveBest || ratio > e.bestRatio {
		e.bestRatio = ratio
		e.haveBest = true
		e.staleRun = 0
		e.mu.Unlock()
		return
	}
	e.staleRun++
	e.stepRejects.Add(1)
	if h != nil {
		h.stepRejects.Inc()
	}
	if e.mode.Load() == surrogateModeTrusted && e.staleRun >= e.cfg.VerifyWindow {
		e.demoteLocked(h)
	}
	e.mu.Unlock()
}

// trusted reports whether VJPs are currently guided by the surrogate.
func (e *SurrogateEstimator) trusted() bool { return e.mode.Load() == surrogateModeTrusted }

// countFD accounts rows' worth of full finite-difference probing.
func (e *SurrogateEstimator) countFD(rows int) {
	probes := int64(rows) * int64(2*e.inDim)
	e.fdVJPs.Add(int64(rows))
	e.trueEvals.Add(probes)
	if h := e.obs.Load(); h != nil {
		h.vjpFD.Add(int64(rows))
		h.trueEvals.Add(probes)
	}
}

// countGuided accounts one guided-sparse row that probed `probed` of inDim
// coordinates: the probes spent are true evals, the rest are savings over
// what a full FD row would have cost.
func (e *SurrogateEstimator) countGuided(probed int) {
	spent := int64(2 * probed)
	saved := int64(2 * (e.inDim - probed))
	e.surrogateVJPs.Add(1)
	e.trueEvals.Add(spent)
	e.evalsSaved.Add(saved)
	if h := e.obs.Load(); h != nil {
		h.vjpSurrogate.Inc()
		h.trueEvals.Add(spent)
		h.evalsSaved.Add(saved)
	}
}

// supportEntry is one cached gradient support with the base point it was
// measured at.
type supportEntry struct {
	x   []float64
	sup []int
}

// maxSupportEntries bounds the support cache: one entry per concurrent
// trajectory is enough, and lookups are linear.
const maxSupportEntries = 4

// nearestSupportLocked returns the index of the cached entry whose base
// point is closest (L2) to x, or -1 (supMu held).
func (e *SurrogateEstimator) nearestSupportLocked(x []float64) int {
	best, bestD := -1, math.Inf(1)
	for i := range e.supports {
		d := 0.0
		for j, v := range e.supports[i].x {
			dv := v - x[j]
			d += dv * dv
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// lookupSupport returns the cached support measured nearest to x (nil when
// the cache is empty).
func (e *SurrogateEstimator) lookupSupport(x []float64) []int {
	e.supMu.Lock()
	defer e.supMu.Unlock()
	if i := e.nearestSupportLocked(x); i >= 0 {
		return e.supports[i].sup
	}
	return nil
}

// recordSupport stores the row's true gradient support for the next guided
// sweep, replacing the nearest cached entry once the cache is full — each
// search trajectory takes small steps, so its own previous entry is the
// nearest and trajectories do not evict each other. Full-FD rows feed the
// cache too: scanning a gradient the fallback already computed is free next
// to its 2n probes, so the first trusted row starts from a measured support,
// not from the surrogate's ranking alone.
func (e *SurrogateEstimator) recordSupport(x, grad []float64) {
	sup := make([]int, 0, 64)
	for j, g := range grad {
		if g != 0 {
			sup = append(sup, j)
		}
	}
	e.supMu.Lock()
	defer e.supMu.Unlock()
	if len(e.supports) < maxSupportEntries {
		e.supports = append(e.supports, supportEntry{x: append([]float64{}, x...), sup: sup})
		return
	}
	i := e.nearestSupportLocked(x)
	ent := &e.supports[i]
	ent.x = ent.x[:0]
	ent.x = append(ent.x, x...)
	ent.sup = sup
}

// guidedVJPInto serves one trusted row with true central differences on a
// restricted subset of coordinates; everything unprobed is reported as zero.
// Two restriction mechanisms, tried in order:
//
// Certified support. When the component's prober implements
// SupportCertifier, the row is the FD estimator's certified sweep (see
// rowCoords): every omitted coordinate is GUARANTEED to produce a
// bitwise-zero central difference, so the row equals the full FD row
// bitwise and no ranking is involved.
//
// Ranked blocks (generic fallback, no certifier). The previous row's
// recorded support is probed first (the bottleneck rarely moves between
// consecutive rows), then the surrogate's VJP ranks the remaining
// coordinates and probes are spent in descending rank order, one block at a
// time, stopping after the first block whose probes all contribute exactly
// zero — but never before at least one nonzero contribution has been found,
// and never on a cached support that failed to re-confirm (either degrades
// to the full sweep; worst case is a full FD row reordered, never a wrongly
// truncated gradient).
//
// Probed coordinates use the FD estimator's exact arithmetic, bitwise
// identical to a full FD row on those coordinates. Returns the number of
// coordinates probed. A certified sweep stops early once ctx fires; callers
// check ctx before using the row.
func (e *SurrogateEstimator) guidedVJPInto(ctx context.Context, x, ybar, grad []float64) int {
	n := len(x)
	step := e.fd.step
	fpBuf := linalg.GetVec(len(ybar))
	defer linalg.PutVec(fpBuf)
	var probe func(j int) float64
	if spe, ok := e.fd.inner.(SparseProbeEvaluator); ok {
		prober := spe.SparseProber(x)
		defer prober.Close()
		if sc, ok := prober.(SupportCertifier); ok {
			certified := sc.CertifiedSupport(step)
			e.fd.sweepInto(ctx, prober, certified, 0, 1, ybar, grad)
			return len(certified)
		}
		probe = func(j int) float64 { return centralDiff(prober, j, step, ybar, fpBuf) }
	} else {
		xp := linalg.GetVec(n)
		defer linalg.PutVec(xp)
		copy(xp, x)
		probe = func(j int) float64 {
			xp[j] = x[j] + step
			fp := e.fd.inner.Forward(xp)
			copy(fpBuf, fp)
			xp[j] = x[j] - step
			fm := e.fd.inner.Forward(xp)
			xp[j] = x[j]
			s := 0.0
			for i := range ybar {
				s += ybar[i] * (fpBuf[i] - fm[i])
			}
			return s
		}
	}

	probedMark := make([]bool, n)
	probed, seen := 0, false
	doProbe := func(j int) {
		s := probe(j)
		grad[j] = s / (2 * step)
		probedMark[j] = true
		probed++
		if s != 0 {
			seen = true
		}
	}

	// Ranked path. Rank all coordinates by the magnitude of the surrogate's
	// learned gradient — where the learner thinks the probes matter.
	sg := linalg.GetVec(n)
	defer linalg.PutVec(sg)
	e.sur.vjpInto(x, ybar, sg)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Abs(sg[order[a]]) > math.Abs(sg[order[b]])
	})

	// Phase 1: probe the nearest cached support. If every one of those
	// coordinates is still in the support, the bottleneck has not moved and
	// the support is confirmed stable — the ranked sweep then only needs to
	// catch entrants and may stop at the first all-zero block. If ANY cached
	// coordinate probes to zero, the support shifted under us: truncating on
	// a ranking we cannot cross-check would risk a wrongly sparsified
	// gradient, so the row degrades to the full sweep (exactly a full FD
	// row, reordered) and re-measures the support from scratch.
	prev := e.lookupSupport(x)
	stale := false
	for _, j := range prev {
		if j >= 0 && j < n && !probedMark[j] {
			doProbe(j)
			if grad[j] == 0 {
				stale = true
			}
		}
	}
	confirmed := len(prev) > 0 && !stale
	block := e.cfg.GuidedBlock
	inBlock, live := 0, false
	for _, j := range order {
		if probedMark[j] {
			continue
		}
		doProbe(j)
		if grad[j] != 0 {
			live = true
		}
		if inBlock++; inBlock == block {
			// An all-zero block ends the sweep only when the support is
			// positively known: either confirmed stable by phase 1, or (with
			// no cached prediction) located by this sweep itself. A sweep
			// that has not seen a single nonzero yet never stops early.
			if !live && (confirmed || (len(prev) == 0 && seen)) {
				break
			}
			inBlock, live = 0, false
		}
	}
	e.recordSupport(x, grad)
	return probed
}

// VJP implements Differentiable: guided-sparse probing when the surrogate is
// trusted, full sparse-FD probing otherwise.
func (e *SurrogateEstimator) VJP(x, ybar []float64) []float64 {
	g, _ := e.VJPCtx(context.Background(), x, ybar)
	return g
}

// VJPCtx implements CtxDifferentiable. The certified sweep and the FD path
// observe cancellation per probed coordinate, the ranked sweep only after
// the row; a cancelled row is discarded.
func (e *SurrogateEstimator) VJPCtx(ctx context.Context, x, ybar []float64) ([]float64, error) {
	if e.trusted() {
		grad := make([]float64, len(x))
		e.countGuided(e.guidedVJPInto(ctx, x, ybar, grad))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return grad, nil
	}
	e.countFD(1)
	grad, err := e.fd.VJPCtx(ctx, x, ybar)
	if err == nil {
		e.recordSupport(x, grad)
	}
	return grad, err
}

// BatchForward implements BatchComponent: rows are true evaluations, each
// observed (and verified) like the scalar Forward.
func (e *SurrogateEstimator) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(xs.Rows, e.sur.outDim)
	for r := 0; r < xs.Rows; r++ {
		copy(out.Row(r), e.Forward(xs.Row(r)))
	}
	return out
}

// BatchVJP implements BatchDifferentiable: trusted rows run the scalar
// guided-sparse serve per row (each row's result depends only on that row
// and the surrogate's parameters, so batched and scalar agree row for row);
// untrusted batches fall through to the FD estimator's probe batching
// (sparse when available).
func (e *SurrogateEstimator) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	g, _ := e.BatchVJPCtx(context.Background(), xs, ybars)
	return g
}

// BatchVJPCtx implements BatchCtxDifferentiable (see VJPCtx).
func (e *SurrogateEstimator) BatchVJPCtx(ctx context.Context, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
	if e.trusted() {
		grads := linalg.NewMatrix(xs.Rows, xs.Cols)
		for r := 0; r < xs.Rows; r++ {
			e.countGuided(e.guidedVJPInto(ctx, xs.Row(r), ybars.Row(r), grads.Row(r)))
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		return grads, nil
	}
	e.countFD(xs.Rows)
	grads, err := e.fd.BatchVJPCtx(ctx, xs, ybars)
	if err == nil && grads.Rows > 0 {
		e.recordSupport(xs.Row(grads.Rows-1), grads.Row(grads.Rows-1))
	}
	return grads, err
}

// Stats returns a snapshot of the estimator's counters and trust state.
func (e *SurrogateEstimator) Stats() SurrogateStats {
	obsn := int64(e.sur.Observations())
	return SurrogateStats{
		TrueEvals:     e.trueEvals.Load(),
		EvalsSaved:    e.evalsSaved.Load(),
		SurrogateVJPs: e.surrogateVJPs.Load(),
		FDVJPs:        e.fdVJPs.Load(),
		VerifyAccepts: e.verifyAccepts.Load(),
		VerifyRejects: e.verifyRejects.Load(),
		StepRejects:   e.stepRejects.Load(),
		Fallbacks:     e.fallbacks.Load(),
		Promotions:    e.promotions.Load(),
		Observations:  obsn,
		Warm:          obsn >= int64(e.sur.cfg.Warmup),
		Trusted:       e.trusted(),
	}
}

// SaveCheckpoint writes the trained surrogate network's parameters to w
// (nn.SaveParams encoding; restore with LoadCheckpoint into an estimator of
// identical architecture).
func (e *SurrogateEstimator) SaveCheckpoint(w io.Writer) error { return e.sur.saveTo(w) }

// LoadCheckpoint restores surrogate parameters written by SaveCheckpoint.
func (e *SurrogateEstimator) LoadCheckpoint(r io.Reader) error { return e.sur.loadFrom(r) }

// TrueEvalObserver is implemented by pipeline stages that want to see every
// fresh true-ratio evaluation the search performs. When a search runs with
// an EvalCache, GradientSearchContext installs the cache's observation hook
// for its duration and fans inserts out to all observer stages; results
// served from the cache were observed when first inserted, so observers
// never pay (or learn) twice, and errors are never cached hence never
// observed.
type TrueEvalObserver interface {
	ObserveTrueEval(x []float64, ratio, sys, opt float64)
}
