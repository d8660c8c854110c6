package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	step         int
	m, v         map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the standard defaults for the
// moment decay rates.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64),
	}
}

// Step applies one Adam update.
func (o *Adam) Step(params []*Param) {
	o.step++
	b1c := 1 - math.Pow(o.Beta1, float64(o.step))
	b2c := 1 - math.Pow(o.Beta2, float64(o.step))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			o.m[p] = m
			o.v[p] = make([]float64, len(p.Data))
		}
		v := o.v[p]
		for i := range p.Data {
			g := p.Grad[i]
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mhat := m[i] / b1c
			vhat := v[i] / b2c
			p.Data[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
}

// ZeroGrads clears the gradients of all given parameters.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales gradients so their global L2 norm does not exceed
// maxNorm; returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	return norm
}
