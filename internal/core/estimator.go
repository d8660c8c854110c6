package core

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rng"
)

// fdComponent wraps an opaque component with a central finite-difference
// VJP: column j of the Jacobian is (f(x + h e_j) − f(x − h e_j)) / 2h, and
// the VJP is the cotangent dotted against each column. Probes across input
// dimensions run in parallel.
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

// VJP implements Differentiable by sampling the function around x. When the
// wrapped component advertises SparseProbeEvaluator, probes go through its
// incremental fast path ((index, delta) pairs instead of full vectors); the
// sparse path reproduces the dense arithmetic bitwise.
func (f *fdComponent) VJP(x, ybar []float64) []float64 {
	g, _ := f.VJPCtx(context.Background(), x, ybar)
	return g
}

// VJPCtx implements CtxDifferentiable: one FD VJP costs 2n forward
// evaluations, so cancellation is observed per coordinate. The feeder stops
// enqueuing jobs once ctx fires and workers skip remaining work while still
// draining the channel, so no goroutine ever blocks on an abandoned send.
func (f *fdComponent) VJPCtx(ctx context.Context, x, ybar []float64) ([]float64, error) {
	n := len(x)
	grad := make([]float64, n)
	if spe, ok := f.inner.(SparseProbeEvaluator); ok {
		if err := f.sparseVJPInto(ctx, spe, x, ybar, grad); err != nil {
			return nil, err
		}
		return grad, nil
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < f.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled perturbation buffer per worker, filled once: each
			// job only touches coordinate j and restores it, so there is no
			// per-job copy of x.
			xp := linalg.GetVec(n)
			defer linalg.PutVec(xp)
			copy(xp, x)
			for j := range jobs {
				if ctx.Err() != nil {
					continue // keep draining so the feeder never blocks
				}
				xp[j] = x[j] + f.step
				fp := f.inner.Forward(xp)
				xp[j] = x[j] - f.step
				fm := f.inner.Forward(xp)
				xp[j] = x[j]
				s := 0.0
				for i := range ybar {
					s += ybar[i] * (fp[i] - fm[i])
				}
				grad[j] = s / (2 * f.step)
			}
		}()
	}
	for j := 0; j < n && ctx.Err() == nil; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return grad, nil
}

// fdBatchChunk is how many coordinates' ± probes are packed into one batch
// before evaluating the wrapped component: 2·fdBatchChunk probe rows per
// sweep keeps the probe matrix cache-resident while amortizing the batched
// forward over many samples.
const fdBatchChunk = 16

// BatchForward implements BatchComponent by delegating to the inner
// component (natively batched when it can be).
func (f *fdComponent) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	return batchForwardStage(f.inner, xs)
}

// BatchVJP implements BatchDifferentiable: rows are independent FD
// estimates, and within each row the ±h probes are packed into probe
// batches evaluated through the inner stage's batched forward. Each
// coordinate's estimate uses exactly the scalar path's arithmetic, so
// batched and scalar VJPs agree bitwise.
func (f *fdComponent) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	g, _ := f.BatchVJPCtx(context.Background(), xs, ybars)
	return g
}

// BatchVJPCtx implements BatchCtxDifferentiable: cancellation is observed
// between rows and probe chunks; partially estimated rows are discarded by
// the caller (the search never uses a gradient from a cancelled sweep).
func (f *fdComponent) BatchVJPCtx(ctx context.Context, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
	if spe, ok := f.inner.(SparseProbeEvaluator); ok {
		return f.sparseBatchVJP(ctx, spe, xs, ybars)
	}
	R, n := xs.Rows, xs.Cols
	grads := linalg.NewMatrix(R, n)
	workers := f.workers
	if workers > R {
		workers = R
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probes := linalg.NewMatrix(2*fdBatchChunk, n)
			for r := range rows {
				if ctx.Err() != nil {
					continue // keep draining so the feeder never blocks
				}
				x, ybar, grad := xs.Row(r), ybars.Row(r), grads.Row(r)
				for j0 := 0; j0 < n; j0 += fdBatchChunk {
					if ctx.Err() != nil {
						break
					}
					j1 := min(j0+fdBatchChunk, n)
					nb := j1 - j0
					for jj := 0; jj < nb; jj++ {
						pp, pm := probes.Row(2*jj), probes.Row(2*jj+1)
						copy(pp, x)
						copy(pm, x)
						pp[j0+jj] = x[j0+jj] + f.step
						pm[j0+jj] = x[j0+jj] - f.step
					}
					sub := &linalg.Matrix{Rows: 2 * nb, Cols: n, Data: probes.Data[:2*nb*n]}
					outs := batchForwardStage(f.inner, sub)
					for jj := 0; jj < nb; jj++ {
						fp, fm := outs.Row(2*jj), outs.Row(2*jj+1)
						s := 0.0
						for i := range ybar {
							s += ybar[i] * (fp[i] - fm[i])
						}
						grad[j0+jj] = s / (2 * f.step)
					}
				}
			}
		}()
	}
	for r := 0; r < R && ctx.Err() == nil; r++ {
		rows <- r
	}
	close(rows)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return grads, nil
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

// VJP implements Differentiable.
func (s *spsaComponent) VJP(x, ybar []float64) []float64 {
	g, _ := s.VJPCtx(context.Background(), x, ybar)
	return g
}

// VJPCtx implements CtxDifferentiable: cancellation is observed between
// two-point samples. An aborted call leaves the shared RNG stream advanced by
// the samples already drawn; the caller discards the whole sweep, so the
// stream position only matters for runs that complete — which consume exactly
// the same draws as an uncancelled call.
func (s *spsaComponent) VJPCtx(ctx context.Context, x, ybar []float64) ([]float64, error) {
	n := len(x)
	grad := make([]float64, n)
	delta := linalg.GetVec(n)
	xp := linalg.GetVec(n)
	xm := linalg.GetVec(n)
	defer linalg.PutVec(delta)
	defer linalg.PutVec(xp)
	defer linalg.PutVec(xm)
	for k := 0; k < s.samples; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		for j := range delta {
			if s.r.Float64() < 0.5 {
				delta[j] = 1
			} else {
				delta[j] = -1
			}
		}
		s.mu.Unlock()
		for j := range x {
			xp[j] = x[j] + s.step*delta[j]
			xm[j] = x[j] - s.step*delta[j]
		}
		fp := s.inner.Forward(xp)
		fm := s.inner.Forward(xm)
		gp, gm := 0.0, 0.0
		for i := range ybar {
			gp += ybar[i] * fp[i]
			gm += ybar[i] * fm[i]
		}
		d := (gp - gm) / (2 * s.step)
		for j := range grad {
			grad[j] += d / delta[j]
		}
	}
	inv := 1 / float64(s.samples)
	for j := range grad {
		grad[j] *= inv
	}
	return grad, nil
}

// BatchForward implements BatchComponent by delegating to the inner
// component.
func (s *spsaComponent) BatchForward(xs *linalg.Matrix) *linalg.Matrix {
	return batchForwardStage(s.inner, xs)
}

// BatchVJP implements BatchDifferentiable.
func (s *spsaComponent) BatchVJP(xs, ybars *linalg.Matrix) *linalg.Matrix {
	g, _ := s.BatchVJPCtx(context.Background(), xs, ybars)
	return g
}

// BatchVJPCtx implements BatchCtxDifferentiable. Rows run sequentially (the
// RNG is shared state), but each row's 2·samples probe points are packed
// into one batch and evaluated through the batched forward. The ± deltas for
// a row are drawn in the same order as the scalar VJP draws them, so a
// batched row matches a scalar call made at the same point in the RNG
// stream. Cancellation is observed between rows (each row costs 2·samples
// forward evaluations).
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
