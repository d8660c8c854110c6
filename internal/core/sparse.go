package core

import (
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

// prober binds a prober for one FD row at x: the wrapped component's own
// when it is a SparseProbeEvaluator, a full-vector one otherwise.
func (f *fdComponent) prober(x []float64) SparseProber {
	if spe, ok := f.inner.(SparseProbeEvaluator); ok {
		return spe.SparseProber(x)
	}
	xp := linalg.GetVec(len(x))
	copy(xp, x)
	return &fullProber{inner: f.inner, base: x, xp: xp}
}

// fullProber answers each probe with one Forward of the whole component at
// the perturbed point. It touches only coordinate index of its pooled copy
// of the base point and restores it, so there is no per-probe copy of x.
type fullProber struct {
	inner    Component
	base, xp []float64
}

// Probe implements SparseProber.
func (p *fullProber) Probe(index int, delta float64) []float64 {
	p.xp[index] = p.base[index] + delta
	y := p.inner.Forward(p.xp)
	p.xp[index] = p.base[index]
	return y
}

// Close implements SparseProber.
func (p *fullProber) Close() { linalg.PutVec(p.xp) }

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
// point — one fixed FD arithmetic (copy fp, probe fm, dot against ybar), so
// a row probed sparsely is bitwise identical to one probed by full
// forwards. fpBuf holds len(ybar) scratch values.
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
