package ad

import "testing"

func TestSegmentMaxForwardAndGrad(t *testing.T) {
	tp := NewTape()
	x := tp.Var([]float64{1, 9, 3, 7, 2})
	y := SegmentMax(x, []int{0, 2}, []int{2, 3})
	if y.Data()[0] != 9 || y.Data()[1] != 7 {
		t.Fatalf("SegmentMax = %v", y.Data())
	}
	BackwardVJP(y, []float64{2, 3})
	g := x.Grad()
	want := []float64{0, 2, 0, 3, 0}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("SegmentMax grad = %v, want %v", g, want)
		}
	}
}

func TestSegmentMaxTieGoesToFirst(t *testing.T) {
	tp := NewTape()
	x := tp.Var([]float64{5, 5})
	y := SegmentMax(x, []int{0}, []int{2})
	BackwardVJP(y, []float64{1})
	if x.Grad()[0] != 1 || x.Grad()[1] != 0 {
		t.Fatalf("tie subgradient = %v, want first element", x.Grad())
	}
}

func TestSegmentMaxEmptySegmentPanics(t *testing.T) {
	tp := NewTape()
	x := tp.Var([]float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("SegmentMax accepted an empty segment")
		}
	}()
	SegmentMax(x, []int{0, 1}, []int{1, 0})
}
