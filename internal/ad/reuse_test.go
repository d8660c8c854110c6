package ad

import (
	"math"
	"testing"
)

// buildAndGrad records a small but representative graph (matmul, reshape,
// activation, softmax and max reductions, slicing, concat) on t and returns
// copies of the output and the input gradient.
func buildAndGrad(t *Tape, w, x []float64, rows, cols int) (float64, []float64) {
	wm := t.VarMat(w, rows, cols)
	xv := t.Var(x)
	h := Tanh(MatMul(wm, Reshape(xv, cols, 1)))
	s := SegmentSoftmax(h, []int{0}, []int{rows})
	mix := Concat(Slice(s, 0, rows/2), Slice(s, rows/2, rows))
	out := Add(Sum(Mul(mix, h)), Max(h))
	Backward(out)
	grad := append([]float64(nil), xv.Grad()...)
	return out.ScalarValue(), grad
}

// TestTapeReuseIdenticalGradients rebuilds the same graph after Reset and
// checks that forward values and gradients are bit-identical to the first
// build — the arena rewind must not leak state between builds.
func TestTapeReuseIdenticalGradients(t *testing.T) {
	const rows, cols = 6, 4
	w := make([]float64, rows*cols)
	x := make([]float64, cols)
	for i := range w {
		w[i] = math.Sin(float64(i) + 1)
	}
	for i := range x {
		x[i] = math.Cos(float64(i) + 1)
	}

	tape := NewTape()
	out1, grad1 := buildAndGrad(tape, w, x, rows, cols)
	nodes1 := tape.NumNodes()

	for rebuild := 0; rebuild < 3; rebuild++ {
		tape.Reset()
		out2, grad2 := buildAndGrad(tape, w, x, rows, cols)
		if out2 != out1 {
			t.Fatalf("rebuild %d: output %g, want %g", rebuild, out2, out1)
		}
		for i := range grad1 {
			if grad2[i] != grad1[i] {
				t.Fatalf("rebuild %d: grad[%d] = %g, want %g", rebuild, i, grad2[i], grad1[i])
			}
		}
		if tape.NumNodes() != nodes1 {
			t.Fatalf("rebuild %d: %d nodes, want %d", rebuild, tape.NumNodes(), nodes1)
		}
	}
}

// TestTapeReuseAcrossShapes interleaves builds of different sizes on one
// tape, checking each against a fresh-tape reference: arena growth for a
// large graph must not corrupt a later small build and vice versa.
func TestTapeReuseAcrossShapes(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{4, 3}, {40, 30}, {4, 3}, {16, 24}, {40, 30}, {2, 2},
	}
	tape := NewTape()
	for si, sh := range shapes {
		w := make([]float64, sh.rows*sh.cols)
		x := make([]float64, sh.cols)
		for i := range w {
			w[i] = math.Sin(float64(si*31+i) + 0.5)
		}
		for i := range x {
			x[i] = math.Cos(float64(si*17+i) + 0.5)
		}
		tape.Reset()
		out, grad := buildAndGrad(tape, w, x, sh.rows, sh.cols)
		refOut, refGrad := buildAndGrad(NewTape(), w, x, sh.rows, sh.cols)
		if out != refOut {
			t.Fatalf("shape %d (%dx%d): output %g, want %g", si, sh.rows, sh.cols, out, refOut)
		}
		for i := range refGrad {
			if grad[i] != refGrad[i] {
				t.Fatalf("shape %d (%dx%d): grad[%d] = %g, want %g",
					si, sh.rows, sh.cols, i, grad[i], refGrad[i])
			}
		}
	}
}

// TestPooledTapeRoundTrip exercises GetTape/PutTape: a pooled tape must come
// back reset and usable, and results copied out before PutTape stay valid.
func TestPooledTapeRoundTrip(t *testing.T) {
	x := []float64{0.3, -0.7, 1.1}
	var outs [4]float64
	var grads [4][]float64
	for k := 0; k < 4; k++ {
		tape := GetTape()
		xv := tape.Var(x)
		out := Sum(Square(xv))
		Backward(out)
		outs[k] = out.ScalarValue()
		grads[k] = append([]float64(nil), xv.Grad()...)
		PutTape(tape)
	}
	for k := 1; k < 4; k++ {
		if outs[k] != outs[0] {
			t.Fatalf("pooled build %d: output %g, want %g", k, outs[k], outs[0])
		}
		for i := range grads[0] {
			if grads[k][i] != grads[0][i] {
				t.Fatalf("pooled build %d: grad[%d] = %g, want %g", k, i, grads[k][i], grads[0][i])
			}
		}
	}
	for i, want := range []float64{0.6, -1.4, 2.2} {
		if math.Abs(grads[0][i]-want) > 1e-12 {
			t.Fatalf("grad[%d] = %g, want %g", i, grads[0][i], want)
		}
	}
}

// TestTapeReuseStopsAllocating verifies the headline property: rebuilding a
// same-shaped graph on a Reset tape performs zero heap allocations.
func TestTapeReuseStopsAllocating(t *testing.T) {
	const rows, cols = 8, 5
	w := make([]float64, rows*cols)
	x := make([]float64, cols)
	for i := range w {
		w[i] = float64(i%7) - 3
	}
	for i := range x {
		x[i] = float64(i) + 0.5
	}
	tape := NewTape()
	buildAndGrad(tape, w, x, rows, cols) // grow arenas
	sink := make([]float64, cols)
	allocs := testing.AllocsPerRun(50, func() {
		tape.Reset()
		wm := tape.VarMat(w, rows, cols)
		xv := tape.Var(x)
		out := Sum(Tanh(MatMul(wm, Reshape(xv, cols, 1))))
		Backward(out)
		copy(sink, xv.Grad())
	})
	if allocs != 0 {
		t.Fatalf("rebuild on reset tape allocates %v times per run, want 0", allocs)
	}

	// The same graph with the weights bound by reference (the inference
	// binding): a view takes a node but no arena storage.
	allocs = testing.AllocsPerRun(50, func() {
		tape.Reset()
		wm := tape.ConstView(w, rows, cols)
		xv := tape.Var(x)
		out := Sum(Tanh(MatMul(wm, Reshape(xv, cols, 1))))
		Backward(out)
		copy(sink, xv.Grad())
	})
	if allocs != 0 {
		t.Fatalf("view-bound rebuild on reset tape allocates %v times per run, want 0", allocs)
	}
}
