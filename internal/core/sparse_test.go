package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rng"
)

// synthSparse is a reference SparseProbeEvaluator: a small nonlinear map
// whose prober answers probes by re-running the exact Forward arithmetic on
// a perturbed copy of the base point. It is trivially exact, so it isolates
// the estimator's sparse dispatch from any incremental-update cleverness.
type synthSparse struct {
	w        []float64
	forwards atomic.Int64
	probes   atomic.Int64
	// onProbe, when set, sees the running probe count after each probe.
	onProbe func(n int64)
}

func (c *synthSparse) Name() string { return "synth" }

func (c *synthSparse) eval(x []float64) []float64 {
	out := make([]float64, 2)
	for i, v := range x {
		out[0] += c.w[i] * v * v
	}
	best := x[0]
	for _, v := range x[1:] {
		if v > best {
			best = v
		}
	}
	out[1] = math.Tanh(best)
	return out
}

func (c *synthSparse) Forward(x []float64) []float64 {
	c.forwards.Add(1)
	return c.eval(x)
}

func (c *synthSparse) SparseProber(x []float64) SparseProber {
	xp := make([]float64, len(x))
	copy(xp, x)
	return &synthProber{c: c, base: x, xp: xp}
}

type synthProber struct {
	c    *synthSparse
	base []float64
	xp   []float64
}

func (p *synthProber) Probe(index int, delta float64) []float64 {
	if n := p.c.probes.Add(1); p.c.onProbe != nil {
		p.c.onProbe(n)
	}
	p.xp[index] = p.base[index] + delta
	out := p.c.eval(p.xp)
	p.xp[index] = p.base[index]
	return out
}

func (p *synthProber) Close() {}

func synthPair(n int, seed uint64) (*synthSparse, *synthSparse, []float64, []float64) {
	r := rng.New(seed)
	w := make([]float64, n)
	x := make([]float64, n)
	for i := range w {
		w[i] = r.Float64() - 0.5
		x[i] = 2*r.Float64() - 1
	}
	ybar := []float64{1.25, -0.75}
	a := &synthSparse{w: w}
	b := &synthSparse{w: w}
	return a, b, x, ybar
}

// TestFDSparseMatchesDenseVJP checks the acceptance contract of the fast
// path: the sparse estimator's gradient is bitwise identical to the dense
// full-vector one of the scalar FD oracle, and the probes actually went
// through the sparse channel (zero inner forwards).
func TestFDSparseMatchesDenseVJP(t *testing.T) {
	const n = 23
	sparse, dense, x, ybar := synthPair(n, 7)
	fdSparse := WithFiniteDiff(sparse, 1e-4)
	fdDense := NewScalarFD(DenseProbes(dense), 1e-4)

	gs := fdSparse.VJP(x, ybar)
	gd := fdDense.VJP(x, ybar)
	for j := range gs {
		if gs[j] != gd[j] {
			t.Fatalf("grad[%d]: sparse %v != dense %v", j, gs[j], gd[j])
		}
	}
	if got := sparse.forwards.Load(); got != 0 {
		t.Fatalf("sparse VJP ran %d full forwards, want 0", got)
	}
	if got := sparse.probes.Load(); got != 2*n {
		t.Fatalf("sparse VJP issued %d probes, want %d", got, 2*n)
	}
	if got := dense.probes.Load(); got != 0 {
		t.Fatalf("DenseProbes wrapper leaked %d sparse probes", got)
	}
	if got := dense.forwards.Load(); got != 2*n {
		t.Fatalf("dense VJP ran %d forwards, want %d", got, 2*n)
	}
}

// TestFDSparseMatchesDenseVJPCtx covers the context-aware scalar path (a
// one-row batch through the pipeline), both live and pre-cancelled, against
// the scalar FD oracle on dense probes.
func TestFDSparseMatchesDenseVJPCtx(t *testing.T) {
	sparse, dense, x, ybar := synthPair(17, 11)
	fdSparse := NewPipeline(WithFiniteDiff(sparse, 1e-4))
	fdDense := NewScalarFD(DenseProbes(dense), 1e-4)

	ctx, cancel := context.WithCancel(context.Background())
	gs, err := fdSparse.VJPCtx(ctx, x, ybar)
	if err != nil {
		t.Fatalf("sparse VJPCtx: %v", err)
	}
	gd, err := fdDense.VJPCtx(ctx, x, ybar)
	if err != nil {
		t.Fatalf("dense VJPCtx: %v", err)
	}
	for j := range gs {
		if gs[j] != gd[j] {
			t.Fatalf("grad[%d]: sparse %v != dense %v", j, gs[j], gd[j])
		}
	}

	cancel()
	if _, err := fdSparse.VJPCtx(ctx, x, ybar); err != context.Canceled {
		t.Fatalf("cancelled sparse VJPCtx: err = %v, want context.Canceled", err)
	}
}

// TestFDSparseMatchesDenseBatchVJP covers the batched-row sweep against the
// scalar FD oracle on dense probes, row by row, and then the sweep's
// (row, stripe) schedule: R ∈ {1, 2, 3} rows under 1 and 4 workers, each
// bitwise equal to the oracle, and each cancelled mid-row returning
// ctx.Err().
func TestFDSparseMatchesDenseBatchVJP(t *testing.T) {
	const n, rows = 19, 5
	sparse, dense, _, _ := synthPair(n, 13)
	fdSparse := WithFiniteDiff(sparse, 1e-4).(*fdComponent)
	fdDense := NewScalarFD(DenseProbes(dense), 1e-4)

	r := rng.New(99)
	xs := linalg.NewMatrix(rows, n)
	ybars := linalg.NewMatrix(rows, 2)
	for i := range xs.Data {
		xs.Data[i] = 2*r.Float64() - 1
	}
	for i := range ybars.Data {
		ybars.Data[i] = r.Float64() - 0.5
	}

	gs := fdSparse.BatchVJP(xs, ybars)
	gd := oracleRows(fdDense.VJP, xs, ybars)
	for i := range gs.Data {
		if gs.Data[i] != gd.Data[i] {
			t.Fatalf("batch grad[%d]: sparse %v != dense %v", i, gs.Data[i], gd.Data[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	gsc, err := fdSparse.BatchVJPCtx(ctx, xs, ybars)
	if err != nil {
		t.Fatalf("sparse BatchVJPCtx: %v", err)
	}
	for i := range gsc.Data {
		if gsc.Data[i] != gd.Data[i] {
			t.Fatalf("batch ctx grad[%d]: sparse %v != dense %v", i, gsc.Data[i], gd.Data[i])
		}
	}
	cancel()
	if _, err := fdSparse.BatchVJPCtx(ctx, xs, ybars); err != context.Canceled {
		t.Fatalf("cancelled sparse BatchVJPCtx: err = %v, want context.Canceled", err)
	}

	for _, sc := range []struct{ R, workers int }{{1, 1}, {1, 4}, {2, 1}, {2, 4}, {3, 1}, {3, 4}} {
		t.Run(fmt.Sprintf("schedule/R=%d/workers=%d", sc.R, sc.workers), func(t *testing.T) {
			sub := &linalg.Matrix{Rows: sc.R, Cols: n, Data: xs.Data[:sc.R*n]}
			subBars := &linalg.Matrix{Rows: sc.R, Cols: 2, Data: ybars.Data[:sc.R*2]}
			want := gd.Data[:sc.R*n]
			syn := &synthSparse{w: sparse.w}
			fd := &fdComponent{inner: syn, step: 1e-4, workers: sc.workers}
			got, err := fd.BatchVJPCtx(context.Background(), sub, subBars)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got.Data[i] != want[i] {
					t.Fatalf("grad[%d]: sweep %v != dense oracle %v", i, got.Data[i], want[i])
				}
			}
			if p := syn.probes.Load(); p != int64(2*n*sc.R) || syn.forwards.Load() != 0 {
				t.Fatalf("sweep ran %d probes and %d forwards, want %d and 0", p, syn.forwards.Load(), 2*n*sc.R)
			}

			// Cancel in the middle of the last row's sweep.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			syn.probes.Store(0)
			stop := int64(2*n*(sc.R-1) + n)
			syn.onProbe = func(p int64) {
				if p == stop {
					cancel()
				}
			}
			if _, err := fd.BatchVJPCtx(ctx, sub, subBars); err != context.Canceled {
				t.Fatalf("cancelled mid-row: err = %v, want context.Canceled", err)
			}
			if p := syn.probes.Load(); p >= int64(2*n*sc.R) {
				t.Fatalf("cancelled sweep still ran all %d probes", p)
			}
		})
	}
}

// TestDenseProbesHidesCapability pins the opt-out semantics: the wrapper
// forwards Name/Forward but does not satisfy SparseProbeEvaluator.
func TestDenseProbesHidesCapability(t *testing.T) {
	c := &synthSparse{w: []float64{1, 2}}
	if _, ok := any(c).(SparseProbeEvaluator); !ok {
		t.Fatal("synthSparse should advertise SparseProbeEvaluator")
	}
	d := DenseProbes(c)
	if _, ok := d.(SparseProbeEvaluator); ok {
		t.Fatal("DenseProbes wrapper must not advertise SparseProbeEvaluator")
	}
	if d.Name() != c.Name() {
		t.Fatalf("Name not forwarded: %q != %q", d.Name(), c.Name())
	}
	x := []float64{0.5, -0.25}
	got, want := d.Forward(x), c.eval(x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Forward not forwarded: %v != %v", got, want)
		}
	}
}
