package repro

// Alloc attack micro-benchmark: the second case study's end-to-end search
// (staged gray-box pipeline over the VM allocator, packing-MILP ratio
// oracle, EvalCache memoization) at quick scale, reporting the discovered
// packing ratio like the Table 1/2 benches do. Wired into `make bench-json`
// so future PRs inherit a BENCH baseline for the allocator path.

import (
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
)

var allocBench struct {
	once sync.Once
	sys  *alloc.System
	err  error
}

// benchAllocSystem lazily builds and trains one quick-scale allocator.
func benchAllocSystem(b *testing.B) *alloc.System {
	b.Helper()
	allocBench.once.Do(func() {
		cfg := alloc.QuickConfig()
		cfg.TrainEpochs = 80
		allocBench.sys, allocBench.err = alloc.New(cfg)
		if allocBench.err == nil {
			allocBench.sys.Train(nil)
		}
	})
	if allocBench.err != nil {
		b.Fatal(allocBench.err)
	}
	return allocBench.sys
}

func benchAllocAttack(b *testing.B, sys *alloc.System) {
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 40
	cfg.Restarts = 4
	cfg.EvalEvery = 2
	cfg.AlphaD = 0.5
	best := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.EvalCache = core.NewEvalCache(1024, 1.0)
		res, err := core.GradientSearch(sys.Target(alloc.PipelineOptions{}), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("alloc attack found nothing")
		}
		if res.BestRatio > best {
			best = res.BestRatio
		}
	}
	b.ReportMetric(best, "ratio")
}

// BenchmarkAllocAttack rides the default warm-started MILP engine for the
// packing oracle (the hot path of every true-ratio evaluation).
func BenchmarkAllocAttack(b *testing.B) {
	benchAllocAttack(b, benchAllocSystem(b))
}
