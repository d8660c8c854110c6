// Package nn builds feed-forward neural networks on top of the ad tape:
// dense layers, activations, optimizers and a training loop. It is the
// substrate for the DOTE DNN (Figure 2) and for the GAN extension (§6).
package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ad"
	"repro/internal/rng"
)

// Param is a trainable tensor with its accumulated gradient.
type Param struct {
	Name       string
	Data       []float64
	Grad       []float64
	Rows, Cols int
}

// NewParam allocates a zero parameter.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		Data: make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
		Rows: rows,
		Cols: cols,
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Ctx carries a tape plus the parameter bindings of one forward pass. When
// Train is true, parameters are bound as differentiable leaves and Harvest
// moves their tape gradients into Param.Grad; otherwise they are constants
// bound by reference (the mode the analyzer uses: it differentiates with
// respect to the *input*, not the weights), so no parameter may change
// while an inference ctx is live.
type Ctx struct {
	T     *ad.Tape
	Train bool
	binds []paramBind
}

type paramBind struct {
	p *Param
	v ad.Value
}

// NewCtx returns a context over a fresh tape.
func NewCtx(train bool) *Ctx {
	return &Ctx{T: ad.NewTape(), Train: train}
}

var ctxPool = sync.Pool{New: func() any { return &Ctx{T: ad.NewTape()} }}

// GetCtx returns a pooled context over a reset tape. Pair with PutCtx on the
// same goroutine path; anything read from the tape (Data, Grad) must be
// copied out before PutCtx, which recycles the tape's arenas.
func GetCtx(train bool) *Ctx {
	c := ctxPool.Get().(*Ctx)
	c.Train = train
	return c
}

// PutCtx resets the context's tape and bindings and returns it to the pool.
func PutCtx(c *Ctx) {
	c.T.Reset()
	c.binds = c.binds[:0]
	ctxPool.Put(c)
}

// Bind places p on the tape, recording it for Harvest when training.
// Training copies p into the tape; inference binds it by reference
// (ad.Tape.ConstView), so p.Data must not change while the tape is live.
func (c *Ctx) Bind(p *Param) ad.Value {
	if c.Train {
		v := c.T.VarMat(p.Data, p.Rows, p.Cols)
		c.binds = append(c.binds, paramBind{p, v})
		return v
	}
	return c.T.ConstView(p.Data, p.Rows, p.Cols)
}

// Harvest accumulates tape gradients into each bound parameter's Grad.
func (c *Ctx) Harvest() {
	for _, b := range c.binds {
		g := b.v.Grad()
		if g == nil {
			continue
		}
		for i := range g {
			b.p.Grad[i] += g[i]
		}
	}
}

// Layer is one stage of a feed-forward network. Inputs and outputs are
// batches: rank-2 values of shape [batch, features].
type Layer interface {
	Forward(c *Ctx, x ad.Value) ad.Value
	Params() []*Param
}

// Dense is a fully connected layer: y = x·W + b with W [in, out].
type Dense struct {
	W, B *Param
}

// NewDense creates a dense layer with Xavier/Glorot-uniform initialization.
func NewDense(name string, in, out int, r *rng.RNG) *Dense {
	d := &Dense{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".b", out, 1),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W.Data {
		d.W.Data[i] = r.Uniform(-limit, limit)
	}
	return d
}

// Forward applies the affine map to a batch [batch, in].
func (d *Dense) Forward(c *Ctx, x ad.Value) ad.Value {
	if x.Cols() != d.W.Rows {
		panic(fmt.Sprintf("nn: Dense input has %d features, want %d", x.Cols(), d.W.Rows))
	}
	w := c.Bind(d.W)
	b := c.Bind(d.B)
	return ad.AddRowVector(ad.MatMul(x, w), b)
}

// Params returns the layer's trainable tensors.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Activation applies an elementwise nonlinearity.
type Activation struct {
	Kind ActKind
}

// ActKind names an activation function.
type ActKind int

// Supported activations.
const (
	ActIdentity ActKind = iota
	ActReLU
	ActLeakyReLU
	ActELU
	ActSigmoid
	ActTanh
	ActSoftplus
)

func (k ActKind) String() string {
	switch k {
	case ActIdentity:
		return "identity"
	case ActReLU:
		return "relu"
	case ActLeakyReLU:
		return "leaky-relu"
	case ActELU:
		return "elu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	case ActSoftplus:
		return "softplus"
	default:
		return fmt.Sprintf("act(%d)", int(k))
	}
}

// Apply applies the activation to any value.
func (k ActKind) Apply(x ad.Value) ad.Value {
	switch k {
	case ActIdentity:
		return x
	case ActReLU:
		return ad.ReLU(x)
	case ActLeakyReLU:
		return ad.LeakyReLU(x, 0.01)
	case ActELU:
		return ad.ELU(x, 1)
	case ActSigmoid:
		return ad.Sigmoid(x)
	case ActTanh:
		return ad.Tanh(x)
	case ActSoftplus:
		return ad.Softplus(x)
	default:
		panic("nn: unknown activation")
	}
}

// Forward applies the nonlinearity.
func (a *Activation) Forward(c *Ctx, x ad.Value) ad.Value { return a.Kind.Apply(x) }

// Params returns nil: activations are parameter-free.
func (a *Activation) Params() []*Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward runs all layers in order.
func (s *Sequential) Forward(c *Ctx, x ad.Value) ad.Value {
	for _, l := range s.Layers {
		x = l.Forward(c, x)
	}
	return x
}

// Params concatenates all layer parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// MLP builds a multi-layer perceptron with the given layer sizes and hidden
// activation; the output layer is linear.
func MLP(name string, sizes []int, hidden ActKind, r *rng.RNG) *Sequential {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	var layers []Layer
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewDense(fmt.Sprintf("%s.%d", name, i), sizes[i], sizes[i+1], r))
		if i+2 < len(sizes) {
			layers = append(layers, &Activation{Kind: hidden})
		}
	}
	return &Sequential{Layers: layers}
}

// MSE returns the mean squared error between two equal-shape values.
func MSE(pred, target ad.Value) ad.Value {
	return ad.Mean(ad.Square(ad.Sub(pred, target)))
}
