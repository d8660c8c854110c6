package core_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/te"
	"repro/internal/topology"
)

// sumTarget is a minimal TE attack target on ps: the "system" reports the
// total demand, with its analytic gradient, so a search exercises the
// routing kernels and the optimal-MLU LP memoized on ps.
func sumTarget(ps *paths.PathSet) *core.AttackTarget {
	n := ps.NumPairs()
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
	return &core.AttackTarget{
		Pipeline:  core.NewPipeline(sum),
		InputDim:  n,
		DemandLen: n,
		PS:        ps,
		MaxDemand: 1,
	}
}

// TestPathSetMemoDiesWithPathSet pins the lifetime of the structures
// derived from a path set (te's MLUSolver, core's routing kernels): they are
// memoized on the PathSet itself, so a finished job's path set — and
// everything built from it — is collectable. A global cache keyed by
// *PathSet would pin every one of them.
func TestPathSetMemoDiesWithPathSet(t *testing.T) {
	const sets = 40
	var collected atomic.Int32
	for i := 0; i < sets; i++ {
		// The finalizer sits on the graph: ps points to it, it does not
		// point back, so it is collectable only once ps is.
		g := topology.Triangle()
		runtime.SetFinalizer(g, func(*topology.Graph) { collected.Add(1) })
		ps := paths.NewPathSet(g, 2)
		tm := make(te.TrafficMatrix, ps.NumPairs())
		for j := range tm {
			tm[j] = 0.1 * float64(1+(i+j)%3)
		}
		if _, _, err := te.OptimalMLU(ps, tm); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		cfg := core.DefaultGradientConfig()
		cfg.Iters, cfg.Restarts, cfg.EvalEvery = 4, 2, 2
		if _, err := core.GradientSearch(sumTarget(ps), cfg); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < sets && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != sets {
		t.Fatalf("%d of %d path sets collected; the rest are pinned", got, sets)
	}
}
