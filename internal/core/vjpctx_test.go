package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// TestVJPCtxMatchesVJP pins that the ctx entry points VJPCtx and
// BatchVJPCtx, under a context that is live but never fires, compute bit
// for bit what the scalar oracles compute: the white-box pipeline, FD with
// dense probes, FD with sparse probes, and SPSA (the oracle and the
// estimator share a seed, so both consume the same random stream).
func TestVJPCtxMatchesVJP(t *testing.T) {
	m := trainedTriangleModel(t)
	spsa := func() *core.Pipeline {
		st := m.OpaqueRoutingPipeline().Stages()
		return core.NewPipeline(st[0], st[1], core.WithSPSA(st[2], 1e-4, 6, 99))
	}
	fd := func(c core.Component) core.Component { return core.NewScalarFD(c, 1e-5) }
	cases := []struct {
		name   string
		oracle core.ScalarChain
		cx     *core.Pipeline
	}{
		{"whitebox", oraclePipeline(m), m.Pipeline()},
		{"fd-dense", oracleOpaque(m, func(c core.Component) core.Component { return fd(core.DenseProbes(c)) }), m.OpaqueRoutingPipelineDense().Grayboxed(1e-5)},
		{"fd-sparse", oracleOpaque(m, fd), m.OpaqueRoutingPipeline().Grayboxed(1e-5)},
		{"spsa", oracleOpaque(m, func(c core.Component) core.Component { return core.NewScalarSPSA(c, 1e-4, 6, 99) }), spsa()},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	xs := randomBatch(rng.New(31), 3, m.InputDim(), m.PS.Graph.AvgLinkCapacity())
	ones := linalg.NewMatrix(xs.Rows, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	for _, c := range cases {
		for r := 0; r < xs.Rows; r++ {
			want := c.oracle.VJP(xs.Row(r), []float64{1})
			got, err := c.cx.VJPCtx(ctx, xs.Row(r), []float64{1})
			if err != nil {
				t.Fatalf("%s row %d: VJPCtx: %v", c.name, r, err)
			}
			sameBits(t, c.name+" VJP", want, got)
		}
		want := linalg.NewMatrix(xs.Rows, xs.Cols)
		for r := 0; r < xs.Rows; r++ {
			copy(want.Row(r), c.oracle.VJP(xs.Row(r), ones.Row(r)))
		}
		got, err := c.cx.BatchVJPCtx(ctx, xs, ones)
		if err != nil {
			t.Fatalf("%s: BatchVJPCtx: %v", c.name, err)
		}
		sameBits(t, c.name+" BatchVJP", want.Data, got.Data)
	}
}

func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s[%d]: ctx form %v, plain %v (must be bitwise equal)", what, i, got[i], want[i])
		}
	}
}
