package core

import (
	"context"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// SparseProber evaluates single-coordinate perturbations of one base point.
// It is the probe-side contract of the incremental-evaluation fast path: the
// implementation keeps whatever state it needs (per-link loads, a resident
// max) to answer f(x + delta·e_index) in time proportional to what the
// coordinate touches, not to the component size.
//
// A prober is bound to the base point passed to SparseProber and is used by
// a single goroutine; concurrency comes from creating one prober per worker.
type SparseProber interface {
	// Probe returns f(x + delta·e_index). The returned slice is owned by the
	// prober and only valid until the next Probe or Close call — callers
	// needing both sides of a central difference must copy the first.
	Probe(index int, delta float64) []float64
	// Close releases the prober's resources (typically back to a pool).
	Close()
}

// SupportCertifier is an optional capability of a SparseProber: from its
// resident state the prober names every coordinate whose ±delta probe could
// change the component's output. The contract is one-sided and exact — any
// index NOT in the returned set is GUARANTEED to probe to the resident
// output bitwise on both sides, so its central difference is exactly zero
// and an estimator may report a zero derivative there without probing and
// without approximation. Indices the certificate includes conservatively
// (probes that turn out to be zero anyway) only cost the probes. The
// returned slice is freshly allocated and owned by the caller; it must be
// re-obtained after the prober's base point changes.
type SupportCertifier interface {
	CertifiedSupport(delta float64) []int
}

// SparseProbeEvaluator is an optional capability of an opaque Component: the
// finite-difference estimator detects it and drives gradient estimation with
// (index, delta) probes instead of full-vector forwards. Implementations
// must guarantee a probe is EXACTLY the value Forward would return at the
// perturbed point, so the sparse and dense estimators produce bitwise
// identical gradients — and therefore identical search trajectories.
type SparseProbeEvaluator interface {
	Component
	// SparseProber returns a prober for base point x. The prober may retain
	// x's backing array until Close; callers must not mutate x while probing.
	SparseProber(x []float64) SparseProber
}

// DenseProbes hides a component's SparseProbeEvaluator capability (if any),
// forcing the finite-difference estimator back onto full-vector forwards.
// It is the reference the sparse-vs-dense equivalence tests and benchmarks
// compare the fast path against.
func DenseProbes(c Component) Component { return &denseProbes{inner: c} }

type denseProbes struct{ inner Component }

func (d *denseProbes) Name() string                  { return d.inner.Name() }
func (d *denseProbes) Forward(x []float64) []float64 { return d.inner.Forward(x) }

// Instrument still forwards: hiding the sparse probes must not also hide
// the component's telemetry.
func (d *denseProbes) Instrument(reg *obs.Registry) {
	if in, ok := d.inner.(Instrumentable); ok {
		in.Instrument(reg)
	}
}

// sparseVJPInto estimates grad via per-coordinate sparse probes, using
// exactly the scalar FD arithmetic (copy fp, probe fm, dot against ybar) so
// the result is bitwise identical to the dense path whenever the prober
// honors the exactness contract. Returns ctx.Err() when cancelled.
func (f *fdComponent) sparseVJPInto(ctx context.Context, spe SparseProbeEvaluator, x, ybar, grad []float64) error {
	n := len(x)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < f.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prober := spe.SparseProber(x)
			defer prober.Close()
			fpBuf := linalg.GetVec(len(ybar))
			defer linalg.PutVec(fpBuf)
			for j := range jobs {
				if ctx.Err() != nil {
					continue // keep draining so the feeder never blocks
				}
				fp := prober.Probe(j, f.step)
				copy(fpBuf, fp)
				fm := prober.Probe(j, -f.step)
				s := 0.0
				for i := range ybar {
					s += ybar[i] * (fpBuf[i] - fm[i])
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
	return ctx.Err()
}

// sparseBatchVJP is the batched-row counterpart: rows are independent base
// points, each worker binds one prober per row and sweeps its coordinates.
func (f *fdComponent) sparseBatchVJP(ctx context.Context, spe SparseProbeEvaluator, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
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
			var fpBuf []float64
			for r := range rows {
				if ctx.Err() != nil {
					continue // keep draining so the feeder never blocks
				}
				x, ybar, grad := xs.Row(r), ybars.Row(r), grads.Row(r)
				if fpBuf == nil {
					fpBuf = linalg.GetVec(len(ybar))
					defer linalg.PutVec(fpBuf)
				}
				prober := spe.SparseProber(x)
				for j := 0; j < n; j++ {
					if j%64 == 0 && ctx.Err() != nil {
						break
					}
					fp := prober.Probe(j, f.step)
					copy(fpBuf, fp)
					fm := prober.Probe(j, -f.step)
					s := 0.0
					for i := range ybar {
						s += ybar[i] * (fpBuf[i] - fm[i])
					}
					grad[j] = s / (2 * f.step)
				}
				prober.Close()
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
