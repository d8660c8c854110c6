package ad

import (
	"testing"

	"repro/internal/rng"
)

func randomVec(n int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func BenchmarkMatMulForwardBackward(b *testing.B) {
	b.ReportAllocs()
	// The DOTE-scale first layer: [1, 1320] x [1320, 128].
	a := randomVec(1320, 3)
	w := randomVec(1320*128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		am := tp.VarMat(a, 1, 1320)
		wm := tp.ConstMat(w, 1320, 128)
		out := MatMul(am, wm)
		Backward(Sum(Square(out)))
	}
}

func BenchmarkSegmentSoftmax(b *testing.B) {
	b.ReportAllocs()
	// Abilene-scale: 110 segments of ~4.
	const segs, segLen = 110, 4
	x := randomVec(segs*segLen, 5)
	offsets := make([]int, segs)
	lens := make([]int, segs)
	for i := range offsets {
		offsets[i] = i * segLen
		lens[i] = segLen
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		SegmentSoftmax(tp.Const(x), offsets, lens)
	}
}

func BenchmarkBackwardDeepChain(b *testing.B) {
	b.ReportAllocs()
	x := randomVec(256, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		v := tp.Var(x)
		y := v
		for d := 0; d < 8; d++ {
			y = Tanh(Scale(y, 1.01))
		}
		Backward(Sum(y))
	}
}
