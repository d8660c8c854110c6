package core

// Scalar oracles of the batch-equivalence suite. Production computes every
// VJP as a batch — a scalar call is a one-row batch — so the tests compare
// it against these bodies, which compute one row at a time by their own
// code: the scalar chain rule and scalar finite-difference and SPSA
// estimators. They are exported to the core_test package through this
// file; the scalar DOTE stages they chain live in dote_oracle_test.go.

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/linalg"
	"repro/internal/rng"
)

// ctxVJP is a scalar stage whose VJP observes cancellation.
type ctxVJP interface {
	VJPCtx(ctx context.Context, x, ybar []float64) ([]float64, error)
}

// ScalarChain is the scalar chain rule over its stages (Figure 4): one
// forward pass keeping each stage's input, then one backward pull per stage.
type ScalarChain []Component

// Forward evaluates the stages left to right.
func (c ScalarChain) Forward(x []float64) []float64 {
	for _, s := range c {
		x = s.Forward(x)
	}
	return x
}

// VJP computes ȳᵀ·dH/dx at x.
func (c ScalarChain) VJP(x, ybar []float64) []float64 {
	g, _ := c.VJPCtx(context.Background(), x, ybar)
	return g
}

// VJPCtx is VJP under ctx, checked between stages and handed to stages that
// observe it themselves.
func (c ScalarChain) VJPCtx(ctx context.Context, x, ybar []float64) ([]float64, error) {
	inputs := make([][]float64, len(c))
	cur := x
	for i, s := range c {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inputs[i] = cur
		cur = s.Forward(cur)
	}
	if len(ybar) != len(cur) {
		panic(fmt.Sprintf("oracle: cotangent length %d, output length %d", len(ybar), len(cur)))
	}
	cot := ybar
	for i := len(c) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch d := c[i].(type) {
		case ctxVJP:
			var err error
			if cot, err = d.VJPCtx(ctx, inputs[i], cot); err != nil {
				return nil, err
			}
		case Differentiable:
			cot = d.VJP(inputs[i], cot)
		default:
			panic(fmt.Sprintf("oracle: stage %q is not differentiable", c[i].Name()))
		}
	}
	return cot, nil
}

// ScalarFD is the scalar central finite-difference VJP: with a
// SparseProbeEvaluator inside, the row's coordinates (its certified support
// when the prober has one) are striped over the workers, one prober each;
// otherwise every coordinate is probed by two full Forwards on a shared
// perturbation buffer per worker.
type ScalarFD struct {
	Inner   Component
	Step    float64
	Workers int
}

// NewScalarFD wraps c as WithFiniteDiff(c, step) does.
func NewScalarFD(c Component, step float64) *ScalarFD {
	return &ScalarFD{Inner: c, Step: step, Workers: runtime.NumCPU()}
}

// Name implements Component.
func (f *ScalarFD) Name() string { return f.Inner.Name() + "+fd" }

// Forward implements Component.
func (f *ScalarFD) Forward(x []float64) []float64 { return f.Inner.Forward(x) }

// VJP implements Differentiable.
func (f *ScalarFD) VJP(x, ybar []float64) []float64 {
	g, _ := f.VJPCtx(context.Background(), x, ybar)
	return g
}

// VJPCtx is VJP with cancellation observed per coordinate.
func (f *ScalarFD) VJPCtx(ctx context.Context, x, ybar []float64) ([]float64, error) {
	n := len(x)
	grad := make([]float64, n)
	if spe, ok := f.Inner.(SparseProbeEvaluator); ok {
		if err := f.sparseVJPInto(ctx, spe, x, ybar, grad); err != nil {
			return nil, err
		}
		return grad, nil
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < f.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xp := make([]float64, n)
			copy(xp, x)
			for j := range jobs {
				if ctx.Err() != nil {
					continue // keep draining so the feeder never blocks
				}
				xp[j] = x[j] + f.Step
				fp := f.Inner.Forward(xp)
				xp[j] = x[j] - f.Step
				fm := f.Inner.Forward(xp)
				xp[j] = x[j]
				s := 0.0
				for i := range ybar {
					s += ybar[i] * (fp[i] - fm[i])
				}
				grad[j] = s / (2 * f.Step)
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

func (f *ScalarFD) sparseVJPInto(ctx context.Context, spe SparseProbeEvaluator, x, ybar, grad []float64) error {
	first := spe.SparseProber(x)
	var coords []int
	if sc, ok := first.(SupportCertifier); ok {
		coords = sc.CertifiedSupport(f.Step)
	} else {
		for j := range x {
			coords = append(coords, j)
		}
	}
	workers := max(1, min(f.Workers, len(coords)))
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
			fpBuf := make([]float64, len(ybar))
			for k := w; k < len(coords); k += workers {
				if ctx.Err() != nil {
					return
				}
				j := coords[k]
				copy(fpBuf, p.Probe(j, f.Step))
				fm := p.Probe(j, -f.Step)
				s := 0.0
				for i := range ybar {
					s += ybar[i] * (fpBuf[i] - fm[i])
				}
				grad[j] = s / (2 * f.Step)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// ScalarSPSA is the scalar SPSA VJP: per sample, one ±1 direction drawn
// under the lock, two Forwards, one averaged estimate.
type ScalarSPSA struct {
	Inner   Component
	Step    float64
	Samples int

	mu sync.Mutex
	r  *rng.RNG
}

// NewScalarSPSA wraps c as WithSPSA(c, step, samples, seed) does, drawing
// the same RNG stream.
func NewScalarSPSA(c Component, step float64, samples int, seed uint64) *ScalarSPSA {
	return &ScalarSPSA{Inner: c, Step: step, Samples: samples, r: rng.New(seed)}
}

// Name implements Component.
func (s *ScalarSPSA) Name() string { return s.Inner.Name() + "+spsa" }

// Forward implements Component.
func (s *ScalarSPSA) Forward(x []float64) []float64 { return s.Inner.Forward(x) }

// VJP implements Differentiable.
func (s *ScalarSPSA) VJP(x, ybar []float64) []float64 {
	g, _ := s.VJPCtx(context.Background(), x, ybar)
	return g
}

// VJPCtx is VJP with cancellation observed between samples.
func (s *ScalarSPSA) VJPCtx(ctx context.Context, x, ybar []float64) ([]float64, error) {
	n := len(x)
	grad := make([]float64, n)
	delta := make([]float64, n)
	xp := make([]float64, n)
	xm := make([]float64, n)
	for k := 0; k < s.Samples; k++ {
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
			xp[j] = x[j] + s.Step*delta[j]
			xm[j] = x[j] - s.Step*delta[j]
		}
		fp := s.Inner.Forward(xp)
		fm := s.Inner.Forward(xm)
		gp, gm := 0.0, 0.0
		for i := range ybar {
			gp += ybar[i] * fp[i]
			gm += ybar[i] * fm[i]
		}
		d := (gp - gm) / (2 * s.Step)
		for j := range grad {
			grad[j] += d / delta[j]
		}
	}
	inv := 1 / float64(s.Samples)
	for j := range grad {
		grad[j] *= inv
	}
	return grad, nil
}

// oracleRows applies a scalar VJP row by row: the reference of a BatchVJP.
func oracleRows(vjp func(x, ybar []float64) []float64, xs, ybars *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(xs.Rows, xs.Cols)
	for r := 0; r < xs.Rows; r++ {
		copy(out.Row(r), vjp(xs.Row(r), ybars.Row(r)))
	}
	return out
}
