package nn

import "repro/internal/ad"

// Minibatch is a reusable training workspace: flat row-major X/Y storage
// that grows once to the configured batch capacity and is refilled in place
// on every training step. Online learners (the core surrogate) call Reset +
// Add + MSEStep thousands of times per search; without a reusable workspace
// each step would allocate two fresh slices and churn the GC on the search
// hot path.
type Minibatch struct {
	in, out int
	n       int
	X, Y    []float64
}

// NewMinibatch returns a workspace for batches of up to capacity rows with
// the given input/output widths.
func NewMinibatch(in, out, capacity int) *Minibatch {
	if capacity < 1 {
		capacity = 1
	}
	return &Minibatch{
		in:  in,
		out: out,
		X:   make([]float64, 0, capacity*in),
		Y:   make([]float64, 0, capacity*out),
	}
}

// Reset empties the batch, keeping the backing storage.
func (b *Minibatch) Reset() {
	b.n = 0
	b.X = b.X[:0]
	b.Y = b.Y[:0]
}

// Len returns the number of rows currently in the batch.
func (b *Minibatch) Len() int { return b.n }

// Add appends one (x, y) sample. The values are copied, so callers may
// reuse their slices.
func (b *Minibatch) Add(x, y []float64) {
	b.X = append(b.X, x[:b.in]...)
	b.Y = append(b.Y, y[:b.out]...)
	b.n++
}

// AddScaled appends one sample with each input coordinate divided by the
// matching entry of scale (len(scale) == in). Normalization happens during
// the copy the batch makes anyway, so no scratch vector is needed.
func (b *Minibatch) AddScaled(x, y, scale []float64) {
	base := len(b.X)
	b.X = append(b.X, x[:b.in]...)
	for i := range scale {
		b.X[base+i] /= scale[i]
	}
	b.Y = append(b.Y, y[:b.out]...)
	b.n++
}

// MSEStep runs one optimizer step of min ‖net(X) − Y‖² over the batch using
// a pooled training context, and returns the pre-step loss. An empty batch
// is a no-op returning 0.
func MSEStep(net *Sequential, opt *Adam, b *Minibatch) float64 {
	if b.n == 0 {
		return 0
	}
	c := GetCtx(true)
	defer PutCtx(c)
	pred := net.Forward(c, c.T.ConstMat(b.X, b.n, b.in))
	loss := MSE(pred, c.T.ConstMat(b.Y, b.n, b.out))
	ZeroGrads(net.Params())
	ad.Backward(loss)
	c.Harvest()
	opt.Step(net.Params())
	return loss.Data()[0]
}
