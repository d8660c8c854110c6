// Package gp implements Gaussian-process regression with an RBF kernel and
// analytic posterior-mean gradients. §6 proposes GPs as one way to
// approximate non-(sub)differentiable components so they can still
// participate in the gray-box chain rule: fit the GP to samples of the
// component, then differentiate the posterior mean.
package gp

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// RBF is the squared-exponential kernel k(a,b) = σ²·exp(−‖a−b‖²/2ℓ²).
type RBF struct {
	LengthScale float64
	Variance    float64
}

// Eval computes the kernel value.
func (k RBF) Eval(a, b []float64) float64 {
	d2 := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	return k.Variance * math.Exp(-d2/(2*k.LengthScale*k.LengthScale))
}

// GradA computes ∂k(a,b)/∂a.
func (k RBF) GradA(a, b []float64) []float64 {
	v := k.Eval(a, b)
	g := make([]float64, len(a))
	inv := 1 / (k.LengthScale * k.LengthScale)
	for i := range a {
		g[i] = -v * (a[i] - b[i]) * inv
	}
	return g
}

// Regressor is a fitted Gaussian process for a scalar-valued function.
type Regressor struct {
	kernel RBF
	noise  float64
	xs     [][]float64
	alpha  []float64 // (K + σₙ²I)⁻¹ y
	chol   *linalg.Matrix
	mean   float64
}

// Fit trains a GP on the (x, y) samples. The observation noise keeps the
// kernel matrix well conditioned.
func Fit(xs [][]float64, ys []float64, kernel RBF, noise float64) (*Regressor, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("gp: need equal non-empty xs and ys")
	}
	if noise <= 0 {
		noise = 1e-6
	}
	n := len(xs)
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(n)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(xs[i], xs[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Set(i, i, k.At(i, i)+noise)
	}
	chol, err := linalg.Cholesky(k)
	if err != nil {
		return nil, fmt.Errorf("gp: kernel matrix not PD (try more noise): %w", err)
	}
	centered := make([]float64, n)
	for i := range ys {
		centered[i] = ys[i] - mean
	}
	alpha := linalg.SolveCholesky(chol, centered)
	return &Regressor{kernel: kernel, noise: noise, xs: xs, alpha: alpha, chol: chol, mean: mean}, nil
}

// Predict returns the posterior mean at x.
func (g *Regressor) Predict(x []float64) float64 {
	s := g.mean
	for i, xi := range g.xs {
		s += g.alpha[i] * g.kernel.Eval(x, xi)
	}
	return s
}

// Grad returns the gradient of the posterior mean at x — the quantity the
// gray-box analyzer consumes in place of the true component gradient.
func (g *Regressor) Grad(x []float64) []float64 {
	grad := make([]float64, len(x))
	for i, xi := range g.xs {
		kg := g.kernel.GradA(x, xi)
		for j := range grad {
			grad[j] += g.alpha[i] * kg[j]
		}
	}
	return grad
}

// SurrogateComponent adapts a fitted multi-output GP (one Regressor per
// output dimension) into the analyzer's Differentiable interface: Forward
// returns posterior means, VJP combines posterior-mean gradients.
type SurrogateComponent struct {
	ComponentName string
	Outputs       []*Regressor
}

// Name implements core.Component.
func (s *SurrogateComponent) Name() string { return s.ComponentName + "+gp" }

// Forward implements core.Component.
func (s *SurrogateComponent) Forward(x []float64) []float64 {
	out := make([]float64, len(s.Outputs))
	for i, r := range s.Outputs {
		out[i] = r.Predict(x)
	}
	return out
}

// VJP implements core.Differentiable.
func (s *SurrogateComponent) VJP(x, ybar []float64) []float64 {
	grad := make([]float64, len(x))
	for i, r := range s.Outputs {
		if ybar[i] == 0 {
			continue
		}
		g := r.Grad(x)
		for j := range grad {
			grad[j] += ybar[i] * g[j]
		}
	}
	return grad
}

// FitComponent samples an opaque vector function at the given points and
// fits one Regressor per output dimension, returning a Differentiable
// surrogate usable in a core.Pipeline.
func FitComponent(name string, f func([]float64) []float64, xs [][]float64, kernel RBF, noise float64) (*SurrogateComponent, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("gp: no sample points")
	}
	ys := make([][]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	outDim := len(ys[0])
	regs := make([]*Regressor, outDim)
	col := make([]float64, len(xs))
	for d := 0; d < outDim; d++ {
		for i := range xs {
			col[i] = ys[i][d]
		}
		r, err := Fit(xs, append([]float64{}, col...), kernel, noise)
		if err != nil {
			return nil, fmt.Errorf("gp: output %d: %w", d, err)
		}
		regs[d] = r
	}
	return &SurrogateComponent{ComponentName: name, Outputs: regs}, nil
}
