package core

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// Observations reports how many samples the surrogate has seen.
func (s *onlineSurrogate) Observations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// predict returns the surrogate network's own prediction f_θ(x), to check
// how closely it tracks the true component.
func (s *onlineSurrogate) predict(x []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := nn.GetCtx(false)
	defer nn.PutCtx(c)
	s.scaleInto(s.scratch, x)
	out := s.net.Forward(c, c.T.ConstMat(s.scratch, 1, s.inDim))
	return append([]float64{}, out.Data()...)
}

func TestOnlineSurrogateLearnsGradient(t *testing.T) {
	// Opaque component: h(x) = [x0^2 + x1, 2*x1]. After enough
	// observations, the surrogate's VJP should approximate the true one.
	opaque := &Func{ComponentName: "h", Fn: func(x []float64) []float64 {
		return []float64{x[0]*x[0] + x[1], 2 * x[1]}
	}}
	cfg := DefaultSurrogateConfig(1)
	cfg.TrainSteps = 8
	cfg.LR = 5e-3
	cfg.Hidden = []int{64, 64}
	cfg.Warmup = 50
	s := WithOnlineSurrogate(opaque, 2, 2, cfg)
	if s.Name() != "h+dnn-surrogate" {
		t.Fatalf("name = %q", s.Name())
	}
	r := rng.New(2)
	// Feed observations across the domain (as a search would).
	for i := 0; i < 1200; i++ {
		x := []float64{r.Uniform(-1, 1), r.Uniform(-1, 1)}
		y := s.Forward(x)
		// Forward must return the TRUE output, not the surrogate's.
		if y[0] != x[0]*x[0]+x[1] || y[1] != 2*x[1] {
			t.Fatal("Forward did not pass through the true component")
		}
	}
	// The surrogate's own predictions must track the component closely.
	probe := []float64{0.2, 0.4}
	pred := s.(*onlineSurrogate).predict(probe)
	truth := opaque.Fn(probe)
	for i := range truth {
		if math.Abs(pred[i]-truth[i]) > 0.25 {
			t.Fatalf("surrogate prediction %d = %v, truth %v", i, pred[i], truth[i])
		}
	}
	// True VJP at x with cotangent ybar: [2 x0 ybar0, ybar0 + 2 ybar1].
	x := []float64{0.5, -0.3}
	ybar := []float64{1, 0.5}
	got := s.VJP(x, ybar)
	want := []float64{2 * x[0] * ybar[0], ybar[0] + 2*ybar[1]}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.35 {
			t.Fatalf("surrogate VJP[%d] = %v, want ~%v", i, got[i], want[i])
		}
	}
}

func TestOnlineSurrogateWarmup(t *testing.T) {
	opaque := &Func{ComponentName: "h", Fn: func(x []float64) []float64 { return x }}
	cfg := DefaultSurrogateConfig(3)
	cfg.Warmup = 10
	s := WithOnlineSurrogate(opaque, 2, 2, cfg)
	// Before warmup the VJP must be zero (no trusted gradient yet) — even
	// after some observations, as long as fewer than Warmup.
	g := s.VJP([]float64{1, 2}, []float64{1, 1})
	for _, v := range g {
		if v != 0 {
			t.Fatal("cold surrogate returned a non-zero gradient")
		}
	}
	r := rng.New(31)
	for i := 0; i < cfg.Warmup-1; i++ {
		s.(*onlineSurrogate).Forward([]float64{r.Uniform(-1, 1), r.Uniform(-1, 1)})
		g = s.VJP([]float64{1, 2}, []float64{1, 1})
		for _, v := range g {
			if v != 0 {
				t.Fatalf("surrogate served a gradient after %d < %d observations", i+1, cfg.Warmup)
			}
		}
	}
	// The observation that completes warmup flips the VJP to the network's
	// gradient, which is generically non-zero.
	s.(*onlineSurrogate).Forward([]float64{r.Uniform(-1, 1), r.Uniform(-1, 1)})
	g = s.VJP([]float64{1, 2}, []float64{1, 1})
	nonzero := false
	for _, v := range g {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("warm surrogate still returns the zero gradient")
	}
}

func TestOnlineSurrogateInPipeline(t *testing.T) {
	// sum(h(x)) with h opaque: the surrogate must let the chain rule pull a
	// useful gradient through.
	opaque := &Func{ComponentName: "h", Fn: func(x []float64) []float64 {
		return []float64{x[0] * x[0], x[1] * x[1]}
	}}
	cfg := DefaultSurrogateConfig(4)
	cfg.Warmup = 40
	cfg.TrainSteps = 8
	cfg.LR = 5e-3
	cfg.Hidden = []int{64, 64}
	wrapped := WithOnlineSurrogate(opaque, 2, 2, cfg)
	p := NewPipeline(wrapped, sumComp{})
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		p.Forward([]float64{r.Uniform(-1, 1), r.Uniform(-1, 1)})
	}
	g := p.Grad([]float64{0.6, -0.4})
	want := []float64{1.2, -0.8}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 0.35 {
			t.Fatalf("pipeline surrogate grad[%d] = %v, want ~%v", i, g[i], want[i])
		}
	}
}

func TestSurrogateBufferWraps(t *testing.T) {
	opaque := &Func{ComponentName: "h", Fn: func(x []float64) []float64 { return x }}
	cfg := DefaultSurrogateConfig(6)
	cfg.BufferSize = 8
	cfg.TrainSteps = 0
	s := WithOnlineSurrogate(opaque, 1, 1, cfg).(*onlineSurrogate)
	for i := 0; i < 30; i++ {
		s.Forward([]float64{float64(i)})
	}
	if s.Observations() != 30 {
		t.Fatalf("observations = %d", s.Observations())
	}
	if len(s.bufX) != 8 {
		t.Fatalf("buffer grew beyond cap: %d", len(s.bufX))
	}
}
