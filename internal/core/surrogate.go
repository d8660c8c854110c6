package core

import (
	"sync"

	"repro/internal/ad"
	"repro/internal/nn"
	"repro/internal/rng"
)

// SurrogateConfig controls the online DNN surrogate of §6 ("Mechanisms
// that approximate non-differentiable components"): a small network f_θ is
// trained DURING the search to match the opaque component h, by minimizing
// L_diff = ‖f_θ(x) − h(x)‖² over the points the search actually visits.
// Forward always returns the TRUE component output; only the gradient comes
// from the surrogate.
type SurrogateConfig struct {
	// Hidden widths of the surrogate MLP.
	Hidden []int
	// BufferSize bounds the replay buffer of observed (x, h(x)) pairs.
	BufferSize int
	// TrainSteps is how many SGD steps run after every observation.
	TrainSteps int
	// BatchSize per training step.
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// InputScale normalizes surrogate inputs (0 = 1).
	InputScale float64
	// Seed drives initialization and batch sampling.
	Seed uint64
	// Warmup is the number of observations before the surrogate's gradient
	// is trusted; before that VJP returns zeros (the search direction then
	// comes from the other stages).
	Warmup int
}

// DefaultSurrogateConfig returns a workable configuration.
func DefaultSurrogateConfig(seed uint64) SurrogateConfig {
	return SurrogateConfig{
		Hidden:     []int{64},
		BufferSize: 512,
		TrainSteps: 2,
		BatchSize:  16,
		LR:         1e-3,
		InputScale: 1,
		Seed:       seed,
		Warmup:     32,
	}
}

// onlineSurrogate wraps an opaque component with a DNN whose training is
// folded into the search, per §6.
type onlineSurrogate struct {
	inner         Component
	cfg           SurrogateConfig
	inDim, outDim int
	scale         []float64 // per-coordinate input scale, length inDim

	mu      sync.Mutex
	net     *nn.Sequential
	opt     *nn.Adam
	r       *rng.RNG
	bufX    [][]float64
	bufY    [][]float64
	next    int
	seen    int
	mb      *nn.Minibatch
	scratch []float64 // pooled input-scaling buffer, length inDim
}

// WithOnlineSurrogate wraps an opaque component of the given input/output
// dimensions. The wrapper is safe for concurrent use; observations from all
// goroutines feed one shared surrogate.
func WithOnlineSurrogate(c Component, inDim, outDim int, cfg SurrogateConfig) Differentiable {
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64}
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = 512
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.InputScale == 0 {
		cfg.InputScale = 1
	}
	scale := make([]float64, inDim)
	for i := range scale {
		scale[i] = cfg.InputScale
	}
	sizes := append(append([]int{inDim}, cfg.Hidden...), outDim)
	return &onlineSurrogate{
		inner:   c,
		cfg:     cfg,
		inDim:   inDim,
		outDim:  outDim,
		scale:   scale,
		net:     nn.MLP("surrogate", sizes, nn.ActTanh, rng.New(cfg.Seed)),
		opt:     nn.NewAdam(cfg.LR),
		r:       rng.New(cfg.Seed + 1),
		mb:      nn.NewMinibatch(inDim, outDim, cfg.BatchSize),
		scratch: make([]float64, inDim),
	}
}

// Name implements Component.
func (s *onlineSurrogate) Name() string { return s.inner.Name() + "+dnn-surrogate" }

// Forward evaluates the TRUE component, records the observation, and takes
// a few surrogate training steps (the integration of L_diff into the
// search loop).
func (s *onlineSurrogate) Forward(x []float64) []float64 {
	y := s.inner.Forward(x)
	s.observe(x, y)
	return y
}

func (s *onlineSurrogate) observe(x, y []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observeLocked(x, y)
}

func (s *onlineSurrogate) observeLocked(x, y []float64) {
	if len(s.bufX) < s.cfg.BufferSize {
		s.bufX = append(s.bufX, append([]float64{}, x...))
		s.bufY = append(s.bufY, append([]float64{}, y...))
	} else {
		// Reuse the evicted row's storage: the ring is at capacity, so the
		// steady state copies in place instead of allocating.
		copy(s.bufX[s.next], x)
		copy(s.bufY[s.next], y)
		s.next = (s.next + 1) % s.cfg.BufferSize
	}
	s.seen++
	for step := 0; step < s.cfg.TrainSteps; step++ {
		s.trainStepLocked()
	}
}

// trainStepLocked runs one minibatch step of min ‖f_θ(x) − h(x)‖² through
// the reusable workspace.
func (s *onlineSurrogate) trainStepLocked() {
	n := len(s.bufX)
	if n == 0 {
		return
	}
	b := s.cfg.BatchSize
	if b > n {
		b = n
	}
	s.mb.Reset()
	for i := 0; i < b; i++ {
		idx := s.r.Intn(n)
		s.mb.AddScaled(s.bufX[idx], s.bufY[idx], s.scale)
	}
	nn.MSEStep(s.net, s.opt, s.mb)
}

// scaleInto writes x normalized by the per-coordinate scale into dst.
func (s *onlineSurrogate) scaleInto(dst, x []float64) {
	for i, v := range x {
		dst[i] = v / s.scale[i]
	}
}

// VJP implements Differentiable using the surrogate network's gradient —
// the approximation the chain rule consumes in place of the non-existent
// true gradient.
func (s *onlineSurrogate) VJP(x, ybar []float64) []float64 {
	grad := make([]float64, len(x))
	s.vjpInto(x, ybar, grad)
	return grad
}

// vjpInto writes the surrogate VJP into grad. Before Warmup the gradient is
// zero (the search direction then comes from the other stages).
func (s *onlineSurrogate) vjpInto(x, ybar, grad []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen < s.cfg.Warmup {
		for i := range grad {
			grad[i] = 0
		}
		return
	}
	c := nn.GetCtx(false)
	defer nn.PutCtx(c)
	s.scaleInto(s.scratch[:s.inDim], x)
	in := c.T.VarMat(s.scratch[:s.inDim], 1, s.inDim)
	out := s.net.Forward(c, in)
	ad.BackwardVJP(out, ybar)
	g := in.Grad()
	for i := range grad {
		grad[i] = g[i] / s.scale[i]
	}
}
