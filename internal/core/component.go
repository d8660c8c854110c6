// Package core implements the paper's contribution: a gray-box end-to-end
// performance analyzer for learning-enabled systems (§3.2–§4).
//
// A system H(x) = Hn(...(H2(H1(x)))) is modeled as a Pipeline of Components.
// Each component exposes forward evaluation; components that are piecewise
// sub-differentiable also expose a vector-Jacobian product (VJP). The
// Pipeline combines per-component VJPs with the chain rule (Figure 4) to
// obtain the end-to-end gradient used by the adversarial search — without
// ever requiring a joint closed-form model of the whole system, which is
// what limits white-box tools (§3.1).
//
// Components that are NOT differentiable can still participate: wrap them
// with WithFiniteDiff or WithSPSA, which estimate the VJP locally from
// samples of the function (§3.2, "compute it locally through samples").
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Component is one stage of a learning-enabled pipeline. Implementations
// must be safe for concurrent Forward calls (the analyzer parallelizes).
type Component interface {
	// Name identifies the stage in reports.
	Name() string
	// Forward evaluates the stage.
	Forward(x []float64) []float64
}

// Differentiable is a Component that can push a cotangent back through
// itself: VJP returns ȳᵀ·J evaluated at x. This is the only capability the
// chain rule needs — far weaker than the closed-form model white-box
// analyzers demand.
type Differentiable interface {
	Component
	VJP(x, ybar []float64) []float64
}

// Pipeline chains components into an end-to-end system H.
type Pipeline struct {
	stages []Component
	// obs, when non-nil, holds one pre-resolved histogram pair per stage
	// (see Instrument). Nil means uninstrumented: the forward/VJP hot paths
	// take branches with no clock reads, no lookups and no allocations.
	obs []stageObs
}

// stageObs is the pre-resolved telemetry of one stage: registry lookups
// happen once in Instrument, never per evaluation.
type stageObs struct {
	fwd *obs.Histogram
	vjp *obs.Histogram
}

// Instrumentable is an optional Component capability: stages holding their
// own internal telemetry (e.g. an incremental evaluator's probe counters)
// receive the pipeline's registry when the pipeline is (de)instrumented.
type Instrumentable interface {
	Instrument(reg *obs.Registry)
}

// Instrument routes per-stage wall-clock timings into reg: stage i records
// "pipeline.<name>.forward.ms" on every forward evaluation (including the
// recorded forward inside a VJP) and "pipeline.<name>.vjp.ms" on every
// pull-back of that record. Stages sharing a name share histograms; stages implementing
// Instrumentable are handed reg as well. Instrument(nil) removes the
// instrumentation and restores the allocation-free fast path. Not safe to
// call concurrently with evaluations.
func (p *Pipeline) Instrument(reg *obs.Registry) {
	for _, s := range p.stages {
		if in, ok := s.(Instrumentable); ok {
			in.Instrument(reg)
		}
	}
	if reg == nil {
		p.obs = nil
		return
	}
	p.obs = make([]stageObs, len(p.stages))
	for i, s := range p.stages {
		p.obs[i] = stageObs{
			fwd: reg.Histogram("pipeline." + s.Name() + ".forward.ms"),
			vjp: reg.Histogram("pipeline." + s.Name() + ".vjp.ms"),
		}
	}
}

// NewPipeline builds a pipeline from stages applied left to right.
func NewPipeline(stages ...Component) *Pipeline {
	if len(stages) == 0 {
		panic("core: empty pipeline")
	}
	return &Pipeline{stages: stages}
}

// Stages returns the component list (shared; do not mutate).
func (p *Pipeline) Stages() []Component { return p.stages }

// Forward evaluates the whole system: a one-row BatchForward.
func (p *Pipeline) Forward(x []float64) []float64 {
	return p.BatchForward(RowBatch(x)).Row(0)
}

// EvalScalar evaluates a pipeline whose final output is scalar.
func (p *Pipeline) EvalScalar(x []float64) float64 {
	y := p.Forward(x)
	if len(y) != 1 {
		panic(fmt.Sprintf("core: pipeline output has %d elements, want scalar", len(y)))
	}
	return y[0]
}

// VJP computes ȳᵀ·dH/dx by the chain rule: a one-row BatchVJP.
func (p *Pipeline) VJP(x, ybar []float64) []float64 {
	g, _ := p.VJPCtx(context.Background(), x, ybar)
	return g
}

// scalarSeed is the shared unit cotangent for scalar-output pipelines. No
// VJP implementation mutates its cotangent argument, so one global is safe.
var scalarSeed = []float64{1}

// Grad returns the gradient of a scalar-output pipeline.
func (p *Pipeline) Grad(x []float64) []float64 {
	return p.VJP(x, scalarSeed)
}

// VJPCtx is VJP under a caller-controlled context: a one-row BatchVJPCtx,
// with the same cancellation contract.
func (p *Pipeline) VJPCtx(ctx context.Context, x, ybar []float64) ([]float64, error) {
	g, err := p.BatchVJPCtx(ctx, RowBatch(x), RowBatch(ybar))
	if err != nil {
		return nil, err
	}
	return g.Row(0), nil
}

// GradCtx is Grad under a caller-controlled context (see VJPCtx).
func (p *Pipeline) GradCtx(ctx context.Context, x []float64) ([]float64, error) {
	return p.VJPCtx(ctx, x, scalarSeed)
}

// Grayboxed returns a pipeline in which every non-differentiable stage has
// been wrapped with a finite-difference VJP estimator — the default
// gray-box treatment of opaque components.
func (p *Pipeline) Grayboxed(step float64) *Pipeline {
	stages := make([]Component, len(p.stages))
	for i, s := range p.stages {
		if _, ok := s.(Differentiable); ok {
			stages[i] = s
		} else {
			stages[i] = WithFiniteDiff(s, step)
		}
	}
	return &Pipeline{stages: stages}
}

// Func wraps a plain function as a named non-differentiable component.
type Func struct {
	ComponentName string
	Fn            func(x []float64) []float64
}

// Name implements Component.
func (f *Func) Name() string { return f.ComponentName }

// Forward implements Component.
func (f *Func) Forward(x []float64) []float64 { return f.Fn(x) }

// DiffFunc wraps forward and VJP closures as a Differentiable component.
type DiffFunc struct {
	ComponentName string
	Fn            func(x []float64) []float64
	VJPFn         func(x, ybar []float64) []float64
}

// Name implements Component.
func (f *DiffFunc) Name() string { return f.ComponentName }

// Forward implements Component.
func (f *DiffFunc) Forward(x []float64) []float64 { return f.Fn(x) }

// VJP implements Differentiable.
func (f *DiffFunc) VJP(x, ybar []float64) []float64 { return f.VJPFn(x, ybar) }

// SliceComponent extracts x[From:To] — a differentiable adapter used to
// feed a sub-slice of one system's input layout into another system (e.g.
// comparing DOTE-Hist, whose input is [history | demand], against a
// Teal-like model that consumes just the demand).
type SliceComponent struct {
	From, To int
}

// Name implements Component.
func (s *SliceComponent) Name() string { return "slice" }

// Forward implements Component.
func (s *SliceComponent) Forward(x []float64) []float64 {
	out := make([]float64, s.To-s.From)
	copy(out, x[s.From:s.To])
	return out
}

// VJP implements Differentiable.
func (s *SliceComponent) VJP(x, ybar []float64) []float64 {
	g := make([]float64, len(x))
	copy(g[s.From:s.To], ybar)
	return g
}

// PrependStage returns a new pipeline with the given component applied
// before every stage of p.
func (p *Pipeline) PrependStage(c Component) *Pipeline {
	stages := append([]Component{c}, p.stages...)
	return &Pipeline{stages: stages}
}

// ParallelGrads computes pipeline gradients for many inputs concurrently
// using up to workers goroutines — the parallelism §3.2 highlights as a
// benefit of the gray-box design. Each input gets its own forward/backward,
// so stages must be safe for concurrent Forward/VJP (all stages in this
// repository are).
func ParallelGrads(p *Pipeline, xs [][]float64, workers int) [][]float64 {
	if workers < 1 {
		workers = 1
	}
	out := make([][]float64, len(xs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = p.Grad(xs[i])
			}
		}()
	}
	for i := range xs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
