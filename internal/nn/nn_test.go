package nn

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ad"
	"repro/internal/rng"
)

func TestDenseForwardShape(t *testing.T) {
	r := rng.New(1)
	d := NewDense("d", 3, 2, r)
	c := NewCtx(false)
	x := c.T.ConstMat([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := d.Forward(c, x)
	if y.Rows() != 2 || y.Cols() != 2 {
		t.Fatalf("Dense output shape %dx%d, want 2x2", y.Rows(), y.Cols())
	}
}

func TestDenseMatchesManual(t *testing.T) {
	d := &Dense{W: NewParam("W", 2, 2), B: NewParam("b", 2, 1)}
	copy(d.W.Data, []float64{1, 2, 3, 4}) // W[in=2,out=2]
	copy(d.B.Data, []float64{10, 20})
	c := NewCtx(false)
	x := c.T.ConstMat([]float64{1, 1}, 1, 2)
	y := d.Forward(c, x)
	// y = [1*1+1*3+10, 1*2+1*4+20] = [14, 26]
	if y.Data()[0] != 14 || y.Data()[1] != 26 {
		t.Fatalf("Dense forward = %v, want [14 26]", y.Data())
	}
}

func TestHarvestGradientMatchesNumeric(t *testing.T) {
	r := rng.New(2)
	net := MLP("m", []int{3, 4, 2}, ActTanh, r)
	x := []float64{0.2, -0.5, 0.9}
	target := []float64{0.3, -0.1}

	lossAt := func() float64 {
		c := NewCtx(false)
		xv := c.T.ConstMat(x, 1, 3)
		out := net.Forward(c, xv)
		return MSE(out, c.T.ConstMat(target, 1, 2)).ScalarValue()
	}

	// Analytic gradients via Harvest.
	c := NewCtx(true)
	xv := c.T.ConstMat(x, 1, 3)
	loss := MSE(net.Forward(c, xv), c.T.ConstMat(target, 1, 2))
	ZeroGrads(net.Params())
	ad.Backward(loss)
	c.Harvest()

	// Numeric check on every parameter element.
	const h = 1e-6
	for _, p := range net.Params() {
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + h
			fp := lossAt()
			p.Data[i] = orig - h
			fm := lossAt()
			p.Data[i] = orig
			num := (fp - fm) / (2 * h)
			if math.Abs(num-p.Grad[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: grad %v, numeric %v", p.Name, i, p.Grad[i], num)
			}
		}
	}
}

func TestInferenceModeBindsConst(t *testing.T) {
	r := rng.New(3)
	net := MLP("m", []int{2, 3, 1}, ActReLU, r)
	c := NewCtx(false)
	x := c.T.VarMat([]float64{1, 2}, 1, 2)
	out := net.Forward(c, x)
	ad.Backward(ad.Sum(out))
	c.Harvest() // must be a no-op
	for _, p := range net.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("inference mode leaked parameter gradients")
			}
		}
	}
	if x.Grad() == nil {
		t.Fatal("input gradient missing in inference mode")
	}
}

// TestTrainLinearRegression checks the whole train loop machinery converges.
func TestTrainLinearRegression(t *testing.T) {
	r := rng.New(4)
	net := &Sequential{Layers: []Layer{NewDense("lin", 2, 1, r)}}
	opt := NewAdam(0.05)
	// Ground truth: y = 2a - 3b + 0.5.
	sample := func() ([]float64, float64) {
		a, b := r.Uniform(-1, 1), r.Uniform(-1, 1)
		return []float64{a, b}, 2*a - 3*b + 0.5
	}
	for epoch := 0; epoch < 400; epoch++ {
		const batch = 16
		xs := make([]float64, 0, batch*2)
		ys := make([]float64, 0, batch)
		for i := 0; i < batch; i++ {
			x, y := sample()
			xs = append(xs, x...)
			ys = append(ys, y)
		}
		c := NewCtx(true)
		out := net.Forward(c, c.T.ConstMat(xs, batch, 2))
		loss := MSE(out, c.T.ConstMat(ys, batch, 1))
		ZeroGrads(net.Params())
		ad.Backward(loss)
		c.Harvest()
		opt.Step(net.Params())
	}
	d := net.Layers[0].(*Dense)
	if math.Abs(d.W.Data[0]-2) > 0.05 || math.Abs(d.W.Data[1]+3) > 0.05 || math.Abs(d.B.Data[0]-0.5) > 0.05 {
		t.Fatalf("regression did not converge: W=%v b=%v", d.W.Data, d.B.Data)
	}
}

// TestTrainXOR checks a nonlinear task trains through hidden layers.
func TestTrainXOR(t *testing.T) {
	r := rng.New(5)
	net := MLP("xor", []int{2, 8, 1}, ActTanh, r)
	opt := NewAdam(0.05)
	inputs := []float64{0, 0, 0, 1, 1, 0, 1, 1}
	targets := []float64{0, 1, 1, 0}
	var last float64
	for epoch := 0; epoch < 800; epoch++ {
		c := NewCtx(true)
		out := ad.Sigmoid(net.Forward(c, c.T.ConstMat(inputs, 4, 2)))
		loss := MSE(out, c.T.ConstMat(targets, 4, 1))
		last = loss.ScalarValue()
		ZeroGrads(net.Params())
		ad.Backward(loss)
		c.Harvest()
		opt.Step(net.Params())
	}
	if last > 0.02 {
		t.Fatalf("XOR did not converge: final loss %v", last)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if math.Abs(p.Grad[0]-0.6) > 1e-12 || math.Abs(p.Grad[1]-0.8) > 1e-12 {
		t.Fatalf("clipped grads = %v", p.Grad)
	}
	// Under the cap: untouched.
	p.Grad[0], p.Grad[1] = 0.1, 0.1
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad[0] != 0.1 {
		t.Fatal("clip modified small gradient")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(6)
	net := MLP("m", []int{3, 5, 2}, ActELU, r)
	var buf bytes.Buffer
	if err := SaveParams(&buf, net); err != nil {
		t.Fatal(err)
	}
	net2 := MLP("m", []int{3, 5, 2}, ActELU, rng.New(7))
	if err := LoadParams(&buf, net2); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		q := net2.Params()[i]
		for j := range p.Data {
			if p.Data[j] != q.Data[j] {
				t.Fatal("round trip changed weights")
			}
		}
	}
}

func TestLoadParamsRejectsShapeMismatch(t *testing.T) {
	r := rng.New(8)
	net := MLP("m", []int{3, 5, 2}, ActELU, r)
	var buf bytes.Buffer
	if err := SaveParams(&buf, net); err != nil {
		t.Fatal(err)
	}
	other := MLP("m", []int{3, 6, 2}, ActELU, r)
	if err := LoadParams(&buf, other); err == nil {
		t.Fatal("LoadParams accepted mismatched architecture")
	}
}

func TestActivationKinds(t *testing.T) {
	c := NewCtx(false)
	x := c.T.Const([]float64{-1, 0, 1})
	for _, k := range []ActKind{ActIdentity, ActReLU, ActLeakyReLU, ActELU, ActSigmoid, ActTanh, ActSoftplus} {
		y := k.Apply(x)
		if y.Len() != 3 {
			t.Fatalf("%v changed length", k)
		}
		if k.String() == "" {
			t.Fatal("empty activation name")
		}
	}
}

func TestMLPDeterministicInit(t *testing.T) {
	a := MLP("m", []int{4, 8, 3}, ActReLU, rng.New(42))
	b := MLP("m", []int{4, 8, 3}, ActReLU, rng.New(42))
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.Data {
			if p.Data[j] != q.Data[j] {
				t.Fatal("same seed produced different init")
			}
		}
	}
	n := 0
	for _, p := range a.Params() {
		n += len(p.Data)
	}
	if n != 4*8+8+8*3+3 {
		t.Fatalf("parameter count = %d", n)
	}
}
