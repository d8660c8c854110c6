package core

// -race coverage for one EvalCache shared by concurrent searches: two
// GradientSearchContext calls hammer one memo cache from their restart
// workers, and each must return exactly what it returns alone. A cross-search
// hit hands one search a value the other computed, so the scorer below is a
// function of the cache key (the quantized point) alone: a hit then returns
// bitwise what the search would have computed itself, and any difference in
// the results is a cache fault (a lost, torn or misattributed entry).
//
// CI runs this under -race.

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// sharedCacheQuantum is the cache's key step; keyedScore rounds to the same
// grid so every point of one bucket scores identically.
const sharedCacheQuantum = 1e-3

// keyedScore is a deterministic multi-modal ratio of the quantized point.
func keyedScore(x []float64) float64 {
	s := 5.0
	for i, v := range x {
		q := math.Round(v/sharedCacheQuantum) * sharedCacheQuantum
		s += math.Sin(3*q + float64(i))
	}
	return s
}

// keyedSearchTarget is a cheap scalar-engine target: a differentiable
// Σ sin(3x_i + i) stage steers the ascent, keyedScore scores it.
func keyedSearchTarget() *AttackTarget {
	stage := &DiffFunc{
		ComponentName: "sines",
		Fn: func(x []float64) []float64 {
			s := 0.0
			for i, v := range x {
				s += math.Sin(3*v + float64(i))
			}
			return []float64{s}
		},
		VJPFn: func(x, ybar []float64) []float64 {
			g := make([]float64, len(x))
			for i, v := range x {
				g[i] = ybar[0] * 3 * math.Cos(3*v+float64(i))
			}
			return g
		},
	}
	return &AttackTarget{
		Pipeline:  NewPipeline(stage),
		InputDim:  4,
		MaxDemand: 1,
		RatioOverride: func(x []float64) (float64, float64, float64, error) {
			r := keyedScore(x)
			return r, r, 1, nil
		},
	}
}

// sameSearch fails unless got carries want's answer bitwise: best ratio and
// point, the improvement trace (iteration and ratio; Elapsed is wall clock)
// and every restart's iteration count.
func sameSearch(t *testing.T, name string, got, want *SearchResult) {
	t.Helper()
	if got.BestRatio != want.BestRatio || got.BestSysMLU != want.BestSysMLU || got.BestOptMLU != want.BestOptMLU {
		t.Fatalf("%s: best %v (%v/%v), alone %v (%v/%v)", name,
			got.BestRatio, got.BestSysMLU, got.BestOptMLU, want.BestRatio, want.BestSysMLU, want.BestOptMLU)
	}
	if len(got.BestX) != len(want.BestX) {
		t.Fatalf("%s: BestX length %d, alone %d", name, len(got.BestX), len(want.BestX))
	}
	for i := range got.BestX {
		if got.BestX[i] != want.BestX[i] {
			t.Fatalf("%s: BestX[%d] %v, alone %v", name, i, got.BestX[i], want.BestX[i])
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d, alone %d", name, len(got.Trace), len(want.Trace))
	}
	for i := range got.Trace {
		if got.Trace[i].Iter != want.Trace[i].Iter || got.Trace[i].Ratio != want.Trace[i].Ratio {
			t.Fatalf("%s: trace[%d] (%d, %v), alone (%d, %v)", name, i,
				got.Trace[i].Iter, got.Trace[i].Ratio, want.Trace[i].Iter, want.Trace[i].Ratio)
		}
	}
	if len(got.Restarts) != len(want.Restarts) {
		t.Fatalf("%s: %d restarts, alone %d", name, len(got.Restarts), len(want.Restarts))
	}
	for i := range got.Restarts {
		if got.Restarts[i].Iters != want.Restarts[i].Iters {
			t.Fatalf("%s: restart %d ran %d iters, alone %d", name, i, got.Restarts[i].Iters, want.Restarts[i].Iters)
		}
	}
}

// TestConcurrentSearchesSharedEvalCacheMatchAlone interleaves a short search
// A inside a long search B over one shared cache, with channel-gated
// ordering: B's restart 0 holds at iteration 20 while A runs start to finish,
// and B's restart 1 runs freely alongside A. A uses B's seed, so its
// trajectories retrace B's and it scores points B already cached (and points
// B is scoring right now). Each search must return bitwise what it returns
// alone with a private cache, and the shared run must have served
// cross-search hits.
func TestConcurrentSearchesSharedEvalCacheMatchAlone(t *testing.T) {
	cfgB := DefaultGradientConfig()
	cfgB.Iters = 200
	cfgB.Restarts = 2
	cfgB.EvalEvery = 1
	cfgB.Patience = 0 // never retire early: B must outlive A
	cfgB.Seed = 7
	// The sines stage has no batched VJP, so each restart is its own group
	// on its own goroutine: holding restart 0 leaves restart 1 running.

	cfgA := cfgB
	cfgA.Iters = 30

	alone := func(cfg GradientConfig) (*SearchResult, EvalCacheStats) {
		cfg.EvalCache = NewEvalCache(1<<14, sharedCacheQuantum)
		res, err := GradientSearchContext(context.Background(), keyedSearchTarget(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.EvalCache.Stats()
	}
	wantA, statsA := alone(cfgA)
	wantB, statsB := alone(cfgB)

	cache := NewEvalCache(1<<14, sharedCacheQuantum)
	bGated := make(chan struct{}) // closed when B's restart 0 reaches iter 20
	aDone := make(chan struct{})  // closed when search A has returned
	cfgB.EvalCache = cache
	cfgB.FaultInjector = func(restart, iter int, x []float64) error {
		if restart == 0 && iter == 20 {
			close(bGated)
			<-aDone // hold B mid-flight while A runs
		}
		return nil
	}
	var wg sync.WaitGroup
	var resB *SearchResult
	var errB error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resB, errB = GradientSearchContext(context.Background(), keyedSearchTarget(), cfgB)
	}()
	select {
	case <-bGated:
	case <-time.After(30 * time.Second):
		t.Fatal("search B never reached its gate")
	}
	cfgA.EvalCache = cache
	resA, errA := GradientSearchContext(context.Background(), keyedSearchTarget(), cfgA)
	close(aDone)
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("search errors: A=%v B=%v", errA, errB)
	}
	if !resA.Found || !resB.Found {
		t.Fatalf("searches found nothing: A=%v B=%v", resA.Found, resB.Found)
	}

	sameSearch(t, "A", resA, wantA)
	sameSearch(t, "B", resB, wantB)

	// Each point is scored once per cache, so the shared run's hits exceed
	// the two private runs' by the points both searches visited.
	if st := cache.Stats(); st.Hits <= statsA.Hits+statsB.Hits {
		t.Fatalf("shared cache served %d hits, private caches %d+%d: no cross-search hit was exercised",
			st.Hits, statsA.Hits, statsB.Hits)
	}
}
