package ad

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// NumNodes returns the number of recorded nodes.
func (t *Tape) NumNodes() int { return len(t.nodes) }

// Mul returns the elementwise product a * b (b may be scalar-broadcast).
// The gradient checks use it to weight an op's outputs into a scalar.
func Mul(a, b Value) Value {
	return elementwiseBinary(a, b,
		func(x, y float64) float64 { return x * y },
		func(x, y float64) float64 { return y },
		func(x, y float64) float64 { return x })
}

// numericGrad computes a central-difference gradient of f at x.
func numericGrad(f func(x []float64) float64, x []float64) []float64 {
	const h = 1e-6
	g := make([]float64, len(x))
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		fp := f(x)
		x[i] = orig - h
		fm := f(x)
		x[i] = orig
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrad verifies the tape gradient of build against central differences.
// build must construct a scalar from a leaf created with t.Var(x).
func checkGrad(t *testing.T, name string, build func(tp *Tape, x Value) Value, x []float64, tol float64) {
	t.Helper()
	eval := func(xs []float64) float64 {
		tp := NewTape()
		v := tp.Var(xs)
		return build(tp, v).ScalarValue()
	}
	tp := NewTape()
	leaf := tp.Var(x)
	out := build(tp, leaf)
	Backward(out)
	got := leaf.Grad()
	want := numericGrad(eval, append([]float64{}, x...))
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: grad[%d] = %v, numeric %v", name, i, got[i], want[i])
		}
	}
}

func TestElementwiseGradients(t *testing.T) {
	x := []float64{0.5, -1.2, 2.0, -0.3, 0.9}
	cases := []struct {
		name  string
		build func(tp *Tape, v Value) Value
	}{
		{"add", func(tp *Tape, v Value) Value {
			return Sum(Add(v, tp.Const([]float64{1, 2, 3, 4, 5})))
		}},
		{"sub", func(tp *Tape, v Value) Value {
			return Sum(Sub(tp.Const([]float64{1, 2, 3, 4, 5}), v))
		}},
		{"mul", func(tp *Tape, v Value) Value {
			return Sum(Mul(v, v))
		}},
		{"scale", func(tp *Tape, v Value) Value { return Sum(Scale(v, -2.5)) }},
		{"sigmoid", func(tp *Tape, v Value) Value { return Sum(Sigmoid(v)) }},
		{"tanh", func(tp *Tape, v Value) Value { return Sum(Tanh(v)) }},
		{"square", func(tp *Tape, v Value) Value { return Sum(Square(v)) }},
		{"softplus", func(tp *Tape, v Value) Value { return Sum(Softplus(v)) }},
		{"elu", func(tp *Tape, v Value) Value { return Sum(ELU(v, 1.0)) }},
		{"leaky", func(tp *Tape, v Value) Value { return Sum(LeakyReLU(v, 0.01)) }},
		{"neg", func(tp *Tape, v Value) Value { return Sum(Neg(v)) }},
		{"mean", func(tp *Tape, v Value) Value { return Mean(Square(v)) }},
		{"chain", func(tp *Tape, v Value) Value {
			return Sum(Mul(Sigmoid(v), Tanh(Scale(v, 0.5))))
		}},
	}
	for _, c := range cases {
		checkGrad(t, c.name, c.build, x, 1e-5)
	}
}

func TestPositiveDomainGradients(t *testing.T) {
	x := []float64{0.5, 1.2, 2.0, 0.3}
	checkGrad(t, "log", func(tp *Tape, v Value) Value { return Sum(Log(v)) }, x, 1e-5)
}

func TestReLUGradient(t *testing.T) {
	// Avoid the kink at 0.
	x := []float64{0.5, -1.2, 2.0, -0.3}
	checkGrad(t, "relu", func(tp *Tape, v Value) Value { return Sum(ReLU(v)) }, x, 1e-5)
}

func TestMaxGradient(t *testing.T) {
	x := []float64{1, 5, 3, 2}
	tp := NewTape()
	v := tp.Var(x)
	out := Max(v)
	if out.ScalarValue() != 5 {
		t.Fatalf("Max = %v", out.ScalarValue())
	}
	Backward(out)
	g := v.Grad()
	want := []float64{0, 1, 0, 0}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("Max grad = %v, want %v", g, want)
		}
	}
}

func TestScalarBroadcast(t *testing.T) {
	x := []float64{1, 2, 3}
	checkGrad(t, "broadcast-mul", func(tp *Tape, v Value) Value {
		s := Sum(v) // scalar
		return Sum(Mul(v, s))
	}, x, 1e-5)
	checkGrad(t, "broadcast-add", func(tp *Tape, v Value) Value {
		return Sum(Add(v, Mean(v)))
	}, x, 1e-5)
}

func TestMatMulGradient(t *testing.T) {
	r := rng.New(2)
	a := make([]float64, 6)
	b := make([]float64, 8)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	checkGrad(t, "matmul-a", func(tp *Tape, v Value) Value {
		am := Reshape(v, 3, 2)
		bm := tp.ConstMat(b, 2, 4)
		return Sum(Square(MatMul(am, bm)))
	}, a, 1e-4)
	checkGrad(t, "matmul-b", func(tp *Tape, v Value) Value {
		am := tp.ConstMat(a, 3, 2)
		bm := Reshape(v, 2, 4)
		return Sum(Square(MatMul(am, bm)))
	}, b, 1e-4)
}

func TestMatMulMatchesMatVec(t *testing.T) {
	r := rng.New(3)
	w := make([]float64, 20)
	x := make([]float64, 5)
	for i := range w {
		w[i] = r.NormFloat64()
	}
	for i := range x {
		x[i] = r.NormFloat64()
	}
	tp := NewTape()
	y := MatMul(tp.ConstMat(w, 4, 5), Reshape(tp.Const(x), 5, 1))
	for i := 0; i < 4; i++ {
		want := 0.0
		for j := 0; j < 5; j++ {
			want += w[i*5+j] * x[j]
		}
		if math.Abs(y.Data()[i]-want) > 1e-12 {
			t.Fatal("MatMul disagrees with the matrix-vector product")
		}
	}
}

func TestSegmentSoftmaxSimplex(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nseg := 1 + r.Intn(5)
		offsets := make([]int, nseg)
		lens := make([]int, nseg)
		total := 0
		for i := range lens {
			offsets[i] = total
			lens[i] = 1 + r.Intn(4)
			total += lens[i]
		}
		x := make([]float64, total)
		for i := range x {
			x[i] = r.Uniform(-5, 5)
		}
		tp := NewTape()
		y := SegmentSoftmax(tp.Var(x), offsets, lens)
		for s := range offsets {
			sum := 0.0
			for i := offsets[s]; i < offsets[s]+lens[s]; i++ {
				v := y.Data()[i]
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentSoftmaxGradient(t *testing.T) {
	x := []float64{0.1, -0.5, 1.2, 0.7, -1.1, 0.4, 2.2}
	offsets := []int{0, 3, 5}
	lens := []int{3, 2, 2}
	checkGrad(t, "segment-softmax", func(tp *Tape, v Value) Value {
		y := SegmentSoftmax(v, offsets, lens)
		return Sum(Mul(y, tp.Const([]float64{1, -2, 0.5, 3, 0, 1, -1})))
	}, x, 1e-5)
}

func TestConcatSliceGradient(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	checkGrad(t, "concat-slice", func(tp *Tape, v Value) Value {
		a := Slice(v, 0, 2)
		b := Slice(v, 2, 4)
		c := Concat(Scale(a, 2), b, tp.Const([]float64{7}))
		return Sum(Square(c))
	}, x, 1e-5)
}

func TestRowAndAddRowVector(t *testing.T) {
	xdata := []float64{1, 2, 3, 4, 5, 6}
	checkGrad(t, "addrowvector", func(tp *Tape, v Value) Value {
		m := Reshape(v, 2, 3)
		bias := tp.Const([]float64{1, -1, 0.5})
		y := AddRowVector(m, bias)
		return Sum(Square(y))
	}, xdata, 1e-5)
	checkGrad(t, "row", func(tp *Tape, v Value) Value {
		m := Reshape(v, 2, 3)
		return Sum(Square(Row(m, 1)))
	}, xdata, 1e-5)
}

func TestCustomOpGradient(t *testing.T) {
	// Custom op: y_i = a_i * b_i (bilinear), gradient checked against Mul.
	x := []float64{0.5, -1, 2}
	b := []float64{3, 4, 5}
	checkGrad(t, "custom-bilinear", func(tp *Tape, v Value) Value {
		bc := tp.Const(b)
		y := Custom(tp, []Value{v, bc}, 3, 1,
			func(in [][]float64, out []float64) {
				for i := range out {
					out[i] = in[0][i] * in[1][i]
				}
			},
			func(in [][]float64, out, gout []float64, gin [][]float64) {
				for i := range gout {
					gin[0][i] += gout[i] * in[1][i]
				}
			})
		return Sum(Square(y))
	}, x, 1e-5)
}

func TestBackwardVJP(t *testing.T) {
	// y = 2x, VJP with cotangent w must give 2w.
	tp := NewTape()
	x := tp.Var([]float64{1, 2, 3})
	y := Scale(x, 2)
	BackwardVJP(y, []float64{1, 10, 100})
	g := x.Grad()
	want := []float64{2, 20, 200}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("VJP grad = %v, want %v", g, want)
		}
	}
}

func TestGradAccumulationAndZero(t *testing.T) {
	tp := NewTape()
	x := tp.Var([]float64{1})
	y := Scale(x, 3)
	Backward(y)
	Backward(y) // second pass accumulates
	if x.Grad()[0] != 6 {
		t.Fatalf("accumulated grad = %v, want 6", x.Grad()[0])
	}
}

func TestTapeReset(t *testing.T) {
	tp := NewTape()
	tp.Var([]float64{1, 2})
	if tp.NumNodes() != 1 {
		t.Fatal("node not recorded")
	}
	tp.Reset()
	if tp.NumNodes() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	tp := NewTape()
	a := tp.Var([]float64{1, 2})
	b := tp.Var([]float64{1, 2, 3})
	mustPanic("add-shape", func() { Add(a, b) })
	mustPanic("backward-nonscalar", func() { Backward(a) })
	mustPanic("slice-range", func() { Slice(a, 0, 5) })
	mustPanic("reshape", func() { Reshape(a, 3, 3) })
	tp2 := NewTape()
	c := tp2.Var([]float64{1, 2})
	mustPanic("cross-tape", func() { Add(a, c) })
}

func TestDeepChainGradient(t *testing.T) {
	// Long chains must not lose gradient ordering.
	x := []float64{0.1}
	checkGrad(t, "deep-chain", func(tp *Tape, v Value) Value {
		y := v
		for i := 0; i < 30; i++ {
			y = Tanh(Scale(y, 1.1))
		}
		return Sum(y)
	}, x, 1e-4)
}

func TestSharedSubexpressionGradient(t *testing.T) {
	// z = x*y + x: gradient through a value used twice.
	x := []float64{2, 3}
	checkGrad(t, "shared", func(tp *Tape, v Value) Value {
		y := Square(v)
		return Sum(Add(Mul(v, y), v))
	}, x, 1e-5)
}
