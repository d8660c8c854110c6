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

// rowCoords returns the coordinates one FD row at p's base point must
// probe: p's certified support when p is a SupportCertifier — every other
// coordinate's central difference is exactly zero, which the caller's
// zeroed grad already holds — and all n coordinates otherwise.
func rowCoords(p SparseProber, step float64, n int) []int {
	if sc, ok := p.(SupportCertifier); ok {
		return sc.CertifiedSupport(step)
	}
	all := make([]int, n)
	for j := range all {
		all[j] = j
	}
	return all
}

// centralDiff returns ybar·(f(x + step·e_j) − f(x − step·e_j)) at p's base
// point — the scalar FD arithmetic (copy fp, probe fm, dot against ybar)
// that keeps a sparse row bitwise identical to the dense one. fpBuf holds
// len(ybar) scratch values.
func centralDiff(p SparseProber, j int, step float64, ybar, fpBuf []float64) float64 {
	fp := p.Probe(j, step)
	copy(fpBuf, fp)
	fm := p.Probe(j, -step)
	s := 0.0
	for i := range ybar {
		s += ybar[i] * (fpBuf[i] - fm[i])
	}
	return s
}

// sweepInto writes grad[j] for the coordinates coords[from], coords[from +
// stride], ... of p's base point, leaving every other entry untouched. It
// stops early, with the row unfinished, once ctx fires.
func (f *fdComponent) sweepInto(ctx context.Context, p SparseProber, coords []int, from, stride int, ybar, grad []float64) {
	fpBuf := linalg.GetVec(len(ybar))
	defer linalg.PutVec(fpBuf)
	for k := from; k < len(coords); k += stride {
		if ctx.Err() != nil {
			return
		}
		j := coords[k]
		grad[j] = centralDiff(p, j, f.step, ybar, fpBuf) / (2 * f.step)
	}
}

// sparseVJPInto estimates grad (zeroed by the caller) via sparse probes of
// the row's coordinates (see rowCoords), striped over the estimator's
// workers. The certificate is computed once, on the first worker's prober;
// each further worker binds a prober of its own. The result is bitwise
// identical to the dense path whenever the prober honors the exactness and
// certificate contracts. Returns ctx.Err() when cancelled.
func (f *fdComponent) sparseVJPInto(ctx context.Context, spe SparseProbeEvaluator, x, ybar, grad []float64) error {
	first := spe.SparseProber(x)
	coords := rowCoords(first, f.step, len(x))
	workers := max(1, min(f.workers, len(coords)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := first
			if w > 0 {
				p = spe.SparseProber(x)
			}
			defer p.Close()
			f.sweepInto(ctx, p, coords, w, workers, ybar, grad)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// sparseBatchVJP is the batched-row counterpart: rows are independent base
// points, each worker binds one prober per row and sweeps that row's
// coordinates serially.
func (f *fdComponent) sparseBatchVJP(ctx context.Context, spe SparseProbeEvaluator, xs, ybars *linalg.Matrix) (*linalg.Matrix, error) {
	R, n := xs.Rows, xs.Cols
	grads := linalg.NewMatrix(R, n)
	workers := max(1, min(f.workers, R))
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rows {
				if ctx.Err() != nil {
					continue // keep draining so the feeder never blocks
				}
				p := spe.SparseProber(xs.Row(r))
				f.sweepInto(ctx, p, rowCoords(p, f.step, n), 0, 1, ybars.Row(r), grads.Row(r))
				p.Close()
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
