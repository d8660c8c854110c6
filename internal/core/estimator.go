package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rng"
)

// fdComponent wraps an opaque component with a central finite-difference
// VJP: column j of the Jacobian is (f(x + h e_j) − f(x − h e_j)) / 2h, and
// the VJP is the cotangent dotted against each column. Probes go through a
// SparseProber (the component's own when it is a SparseProbeEvaluator,
// full-vector forwards otherwise) and run in parallel (see BatchVJPCtx).
type fdComponent struct {
	inner   Component
	step    float64
	workers int
}

// WithFiniteDiff wraps a component with a finite-difference gradient
// estimator using the given probe step. The wrapped component's Forward
// must be safe for concurrent use.
func WithFiniteDiff(c Component, step float64) Differentiable {
	if step <= 0 {
		step = 1e-5
	}
	return &fdComponent{inner: c, step: step, workers: runtime.NumCPU()}
}

// Name implements Component.
func (f *fdComponent) Name() string { return f.inner.Name() + "+fd" }

// Forward implements Component.
func (f *fdComponent) Forward(x []float64) []float64 { return f.inner.Forward(x) }

// Instrument forwards pipeline (de)instrumentation to the wrapped component.
func (f *fdComponent) Instrument(reg *obs.Registry) {
	if in, ok := f.inner.(Instrumentable); ok {
		in.Instrument(reg)
	}
}

// VJP implements Differentiable as a one-row BatchVJP.
func (f *fdComponent) VJP(x, ybar []float64) []float64 {
	return f.BatchVJP(RowBatch(x), RowBatch(ybar)).Row(0)
}

// BatchForward implements BatchComponent by delegating to the inner
// component (natively batched when it can be).
func (f *fdComponent) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	out := batchForwardStage(f.inner, xs)
	return &out
}

// BatchVJP implements BatchDifferentiable.
func (f *fdComponent) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	g, _ := f.BatchVJPCtx(context.Background(), xs, ybars)
	return g
}

// BatchVJPCtx implements BatchCtxDifferentiable with one sweep in two
// fan-outs. First every row binds a prober and computes the coordinates it
// must probe (rowCoords: the certified support when the prober offers one),
// so no probing task ever waits for a certificate. Then (row, stripe) tasks
// probe: each row's coordinates are split into workers/R stripes (at least
// one), so a lone row is spread over every worker and a batch of at least
// workers rows runs one task per row. Stripe 0 probes with its row's
// prober; every further stripe binds a prober of its own. Each
// coordinate's estimate is the same arithmetic whatever the schedule, so
// the result is bitwise independent of R and the worker count.
// Cancellation is observed per coordinate, and a cancelled sweep returns
// ctx.Err() with no gradient (the search never uses a partial one).
func (f *fdComponent) BatchVJPCtx(ctx context.Context, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
	R, n := xs.Rows, xs.Cols
	grads := linalg.NewMatrix(R, n)
	probers := make([]SparseProber, R)
	coords := make([][]int, R)
	f.fanOut(ctx, R, func(r int) {
		probers[r] = f.prober(xs.Row(r))
		coords[r] = rowCoords(probers[r], f.step, n)
	})
	stripes := max(1, f.workers/R)
	f.fanOut(ctx, R*stripes, func(t int) {
		r, s := t/stripes, t%stripes
		if s >= len(coords[r]) {
			return // an empty stripe, or a row the cancelled first pass skipped
		}
		p := probers[r]
		if s > 0 {
			p = f.prober(xs.Row(r))
			defer p.Close()
		}
		ybar, grad := ybars.Row(r), grads.Row(r)
		fpBuf := linalg.GetVec(len(ybar))
		defer linalg.PutVec(fpBuf)
		for k := s; k < len(coords[r]) && ctx.Err() == nil; k += stripes {
			j := coords[r][k]
			grad[j] = centralDiff(p, j, f.step, ybar, fpBuf) / (2 * f.step)
		}
	})
	for _, p := range probers {
		if p != nil {
			p.Close()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return grads, nil
}

// fanOut runs task(0), ..., task(n-1) on min(workers, n) goroutines and
// waits for them; a lone task runs on the calling goroutine. Tasks not yet
// started when ctx fires are skipped.
func (f *fdComponent) fanOut(ctx context.Context, n int, task func(i int)) {
	if n == 1 {
		if ctx.Err() == nil {
			task(0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(f.workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// spsaComponent estimates the VJP with simultaneous perturbation (SPSA):
// each sample perturbs ALL input coordinates with a random ±1 vector Δ and
// uses (g(x+hΔ) − g(x−hΔ)) / 2h · Δ⁻¹ as an unbiased gradient estimate of
// the scalar g(x) = ȳᵀf(x). Needs O(samples) function evaluations total,
// independent of the input dimension — the cheap end of the gray-box
// spectrum.
type spsaComponent struct {
	inner   Component
	step    float64
	samples int

	mu sync.Mutex
	r  *rng.RNG
}

// WithSPSA wraps a component with an SPSA gradient estimator averaging the
// given number of two-point probes.
func WithSPSA(c Component, step float64, samples int, seed uint64) Differentiable {
	if step <= 0 {
		step = 1e-4
	}
	if samples < 1 {
		samples = 8
	}
	return &spsaComponent{inner: c, step: step, samples: samples, r: rng.New(seed)}
}

// Name implements Component.
func (s *spsaComponent) Name() string { return s.inner.Name() + "+spsa" }

// Forward implements Component.
func (s *spsaComponent) Forward(x []float64) []float64 { return s.inner.Forward(x) }

// VJP implements Differentiable as a one-row BatchVJP.
func (s *spsaComponent) VJP(x, ybar []float64) []float64 {
	return s.BatchVJP(RowBatch(x), RowBatch(ybar)).Row(0)
}

// BatchForward implements BatchComponent by delegating to the inner
// component.
func (s *spsaComponent) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	out := batchForwardStage(s.inner, xs)
	return &out
}

// BatchVJP implements BatchDifferentiable.
func (s *spsaComponent) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	g, _ := s.BatchVJPCtx(context.Background(), xs, ybars)
	return g
}

// BatchVJPCtx implements BatchCtxDifferentiable. Rows run sequentially (the
// RNG is shared state): each row draws its samples' ± deltas in one locked
// run, then packs its 2·samples probe points into one batch evaluated
// through the batched forward, so a row's estimate depends only on its point
// and its position in the RNG stream, not on the batch it came in.
// Cancellation is observed between rows (each row costs 2·samples forward
// evaluations); an aborted call leaves the stream advanced by the rows
// already drawn, and the caller discards the whole sweep.
func (s *spsaComponent) BatchVJPCtx(ctx context.Context, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
	R, n := xs.Rows, xs.Cols
	grads := linalg.NewMatrix(R, n)
	probes := linalg.NewMatrix(2*s.samples, n)
	deltas := linalg.NewMatrix(s.samples, n)
	for r := 0; r < R; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x, ybar, grad := xs.Row(r), ybars.Row(r), grads.Row(r)
		s.mu.Lock()
		for k := 0; k < s.samples; k++ {
			d := deltas.Row(k)
			for j := range d {
				if s.r.Float64() < 0.5 {
					d[j] = 1
				} else {
					d[j] = -1
				}
			}
		}
		s.mu.Unlock()
		for k := 0; k < s.samples; k++ {
			d := deltas.Row(k)
			xp, xm := probes.Row(2*k), probes.Row(2*k+1)
			for j := range x {
				xp[j] = x[j] + s.step*d[j]
				xm[j] = x[j] - s.step*d[j]
			}
		}
		outs := batchForwardStage(s.inner, probes)
		for k := 0; k < s.samples; k++ {
			d := deltas.Row(k)
			fp, fm := outs.Row(2*k), outs.Row(2*k+1)
			gp, gm := 0.0, 0.0
			for i := range ybar {
				gp += ybar[i] * fp[i]
				gm += ybar[i] * fm[i]
			}
			est := (gp - gm) / (2 * s.step)
			for j := range grad {
				grad[j] += est / d[j]
			}
		}
		inv := 1 / float64(s.samples)
		for j := range grad {
			grad[j] *= inv
		}
	}
	return grads, nil
}
