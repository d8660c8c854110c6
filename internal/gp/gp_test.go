package gp

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

func TestFitRecoversSmootFunction(t *testing.T) {
	// f(x) = sin(x0) + 0.5 x1.
	f := func(x []float64) float64 { return math.Sin(x[0]) + 0.5*x[1] }
	r := rng.New(1)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x := []float64{r.Uniform(-2, 2), r.Uniform(-2, 2)}
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	g, err := Fit(xs, ys, RBF{LengthScale: 1, Variance: 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := []float64{r.Uniform(-1.5, 1.5), r.Uniform(-1.5, 1.5)}
		if math.Abs(g.Predict(x)-f(x)) > 0.05 {
			t.Fatalf("prediction at %v: %v, want %v", x, g.Predict(x), f(x))
		}
	}
}

func TestGradMatchesNumeric(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(x[0]) * math.Cos(x[1]) }
	r := rng.New(2)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 150; i++ {
		x := []float64{r.Uniform(-2, 2), r.Uniform(-2, 2)}
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	g, err := Fit(xs, ys, RBF{LengthScale: 0.8, Variance: 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// The GP-mean gradient must match the numeric gradient of the GP mean
	// exactly, and the true function's gradient approximately.
	x := []float64{0.3, -0.4}
	grad := g.Grad(x)
	const h = 1e-5
	for i := range x {
		xp := append([]float64{}, x...)
		xm := append([]float64{}, x...)
		xp[i] += h
		xm[i] -= h
		num := (g.Predict(xp) - g.Predict(xm)) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-6 {
			t.Fatalf("grad[%d] = %v, numeric GP grad %v", i, grad[i], num)
		}
	}
	trueGrad := []float64{math.Cos(x[0]) * math.Cos(x[1]), -math.Sin(x[0]) * math.Sin(x[1])}
	for i := range trueGrad {
		if math.Abs(grad[i]-trueGrad[i]) > 0.1 {
			t.Fatalf("grad[%d] = %v far from true %v", i, grad[i], trueGrad[i])
		}
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, RBF{1, 1}, 1e-6); err == nil {
		t.Fatal("accepted empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, RBF{1, 1}, 1e-6); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func TestSurrogateComponentInPipeline(t *testing.T) {
	// Fit a surrogate of an opaque component and use it in a core.Pipeline;
	// the surrogate's gradients should approximate the true ones.
	opaque := func(x []float64) []float64 {
		return []float64{x[0]*x[0] + x[1], math.Sin(x[1])}
	}
	r := rng.New(4)
	var xs [][]float64
	for i := 0; i < 200; i++ {
		xs = append(xs, []float64{r.Uniform(-1.5, 1.5), r.Uniform(-1.5, 1.5)})
	}
	sc, err := FitComponent("opaque", opaque, xs, RBF{LengthScale: 0.9, Variance: 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != "opaque+gp" {
		t.Fatalf("name = %q", sc.Name())
	}
	sum := &core.DiffFunc{
		ComponentName: "sum",
		Fn: func(x []float64) []float64 {
			s := 0.0
			for _, v := range x {
				s += v
			}
			return []float64{s}
		},
		VJPFn: func(x, ybar []float64) []float64 {
			g := make([]float64, len(x))
			for i := range g {
				g[i] = ybar[0]
			}
			return g
		},
	}
	p := core.NewPipeline(sc, sum)
	x := []float64{0.4, -0.2}
	// True gradient of sum(opaque(x)): [2 x0, 1 + cos(x1)].
	grad := p.Grad(x)
	want := []float64{2 * x[0], 1 + math.Cos(x[1])}
	for i := range want {
		if math.Abs(grad[i]-want[i]) > 0.15 {
			t.Fatalf("surrogate grad[%d] = %v, want ~%v", i, grad[i], want[i])
		}
	}
	// Forward accuracy.
	got := p.EvalScalar(x)
	wantVal := x[0]*x[0] + x[1] + math.Sin(x[1])
	if math.Abs(got-wantVal) > 0.05 {
		t.Fatalf("surrogate forward %v, want %v", got, wantVal)
	}
}

func TestFitComponentValidation(t *testing.T) {
	if _, err := FitComponent("x", func(x []float64) []float64 { return x }, nil, RBF{1, 1}, 1e-6); err == nil {
		t.Fatal("accepted empty sample set")
	}
}

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{LengthScale: 1, Variance: 2}
	a := []float64{1, 2}
	if math.Abs(k.Eval(a, a)-2) > 1e-12 {
		t.Fatal("k(x,x) != variance")
	}
	b := []float64{3, 4}
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Fatal("kernel not symmetric")
	}
	if k.Eval(a, b) >= k.Eval(a, a) {
		t.Fatal("kernel not decaying")
	}
	g := k.GradA(a, a)
	if g[0] != 0 || g[1] != 0 {
		t.Fatal("kernel gradient at identical points must vanish")
	}
}
