package ad

import (
	"math"
	"testing"
)

// viewWeights returns a deterministic [rows, cols] weight matrix and a
// snapshot copy of it.
func viewWeights(rows, cols int) (w, snap []float64) {
	w = make([]float64, rows*cols)
	for i := range w {
		w[i] = math.Sin(float64(i)*0.7 + 0.3)
	}
	return w, append([]float64(nil), w...)
}

func sameFloats(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestConstViewAliasesCallerStorage: a view's Data is the caller's slice,
// not a copy, and its capacity is clipped so an append cannot write past it.
func TestConstViewAliasesCallerStorage(t *testing.T) {
	const rows, cols = 3, 4
	buf := make([]float64, rows*cols+5) // spare capacity beyond the view
	w := buf[:rows*cols]
	for i := range w {
		w[i] = float64(i) + 0.25
	}
	tp := NewTape()
	v := tp.ConstView(w, rows, cols)
	if v.Rows() != rows || v.Cols() != cols {
		t.Fatalf("view shape %dx%d, want %dx%d", v.Rows(), v.Cols(), rows, cols)
	}
	d := v.Data()
	if &d[0] != &w[0] || len(d) != len(w) {
		t.Fatal("ConstView copied its data instead of aliasing it")
	}
	if cap(d) != rows*cols {
		t.Fatalf("view capacity %d, want %d (clipped)", cap(d), rows*cols)
	}
	w[5] = -9
	if d[5] != -9 {
		t.Fatal("view does not see the caller's storage")
	}
	if c := tp.ConstMat(w, rows, cols).Data(); &c[0] == &w[0] {
		t.Fatal("ConstMat aliases; the view test would prove nothing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ConstView accepted a shape mismatch")
		}
	}()
	tp.ConstView(w, rows, cols+1)
}

// TestConstViewNeverWritten: recording against a view, running backward,
// resetting the tape (and returning it to the pool) and then filling the
// arena with fresh recordings never writes the aliased storage.
func TestConstViewNeverWritten(t *testing.T) {
	const rows, cols = 6, 5
	w, snap := viewWeights(rows, cols)
	tp := GetTape()
	x := tp.VarMat([]float64{1, -2, 3, -4, 5, 0.5, 0.25, -1.5, 2, 1, -0.75, 3.5}, 2, rows)
	out := Sum(Tanh(MatMul(x, tp.ConstView(w, rows, cols))))
	Backward(out)
	sameFloats(t, "weights after backward", snap, w)

	tp.Reset()
	// Fill the rewound arena (data and gradients) well past the view's size.
	for k := 0; k < 8; k++ {
		big := make([]float64, 4096)
		for i := range big {
			big[i] = 1e6 + float64(i)
		}
		Backward(Sum(Square(tp.Var(big))))
	}
	sameFloats(t, "weights after reset and refill", snap, w)

	tp.ConstView(w, rows, cols)
	PutTape(tp)
	for k := 0; k < 4; k++ {
		p := GetTape()
		Backward(Sum(Square(p.Var(make([]float64, 2*rows*cols)))))
		PutTape(p)
	}
	sameFloats(t, "weights after PutTape and pooled reuse", snap, w)
}

// TestConstViewNoGradient: a view is a non-differentiable leaf, so no
// gradient accumulates into it, even when its consumer is a Var.
func TestConstViewNoGradient(t *testing.T) {
	const rows, cols = 4, 3
	w, snap := viewWeights(rows, cols)
	tp := NewTape()
	v := tp.ConstView(w, rows, cols)
	x := tp.VarMat([]float64{0.5, -1, 2, 0.25}, 1, rows)
	prod := MatMul(x, v)
	// Feed the view into elementwise and n-ary ops beside the Var as well.
	mixed := Add(Reshape(prod, cols, 1), Slice(Reshape(v, rows*cols, 1), 0, cols))
	Backward(Sum(Concat(mixed, Reshape(v, rows*cols, 1))))
	if g := v.Grad(); g != nil {
		t.Fatalf("view has gradient %v, want none", g)
	}
	if x.Grad() == nil {
		t.Fatal("the Var consumer got no gradient")
	}
	sameFloats(t, "weights", snap, w)
}

// TestConstViewMatMulMatchesConstMat: a product against a view is bitwise
// the product against a copied constant, forward and backward.
func TestConstViewMatMulMatchesConstMat(t *testing.T) {
	const m, k, p = 5, 7, 3
	w, _ := viewWeights(k, p)
	xd := make([]float64, m*k)
	for i := range xd {
		xd[i] = math.Cos(float64(i)*1.3) * 4
	}
	run := func(bind func(tp *Tape) Value) (out, grad []float64) {
		tp := NewTape()
		x := tp.VarMat(xd, m, k)
		y := MatMul(x, bind(tp))
		Backward(Sum(Tanh(y)))
		return append([]float64(nil), y.Data()...), append([]float64(nil), x.Grad()...)
	}
	wantOut, wantGrad := run(func(tp *Tape) Value { return tp.ConstMat(w, k, p) })
	gotOut, gotGrad := run(func(tp *Tape) Value { return tp.ConstView(w, k, p) })
	sameFloats(t, "product", wantOut, gotOut)
	sameFloats(t, "input gradient", wantGrad, gotGrad)
}
