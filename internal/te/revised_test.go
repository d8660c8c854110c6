package te

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	s := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / s
}

// gravityTM builds one deterministic gravity-like traffic matrix without
// pulling in the traffic package (which imports te).
func gravityTM(ps *paths.PathSet, scale float64, r *rng.RNG) TrafficMatrix {
	tm := make(TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = scale * r.Uniform(0.05, 1)
	}
	return tm
}

// TestLargeTopologyRevised solves a tegen-grown Waxman MLU LP — the problem
// size where a dense tableau (~rows×cols float64s) would not be practical.
// Kept moderate (60 nodes) so the test suite stays fast; the 100-node
// acceptance point runs in BenchmarkWaxman100 (make bench-lp).
func TestLargeTopologyRevised(t *testing.T) {
	if testing.Short() {
		t.Skip("large LP in -short mode")
	}
	g := topology.Waxman(60, 4, 5, 10, rng.New(42))
	ps := paths.NewPathSet(g, 4)
	s := NewMLUSolver(ps)
	tm := gravityTM(ps, g.AvgLinkCapacity()/float64(g.NumNodes()), rng.New(1))
	mlu, splits, err := s.Solve(tm)
	if err != nil {
		t.Fatalf("revised solve: %v", err)
	}
	if mlu <= 0 {
		t.Fatalf("MLU %g, want > 0", mlu)
	}
	if got, _ := MLU(ps, tm, splits); relDiff(got, mlu) > 1e-7 {
		t.Fatalf("splits achieve MLU %.12g, LP claims %.12g", got, mlu)
	}
}

// TestRevisedConcurrentPool is the -race leg for the revised engine: several
// goroutines solving through one shared MLUSolver (pooled lp.Solvers, each
// with retained revised-simplex state) while another scrapes Stats().
// Correctness of each answer is pinned against cold solves on solvers of
// their own, computed up front.
func TestRevisedConcurrentPool(t *testing.T) {
	g := topology.Abilene()
	ps := paths.NewPathSet(g, 4)
	scale := g.AvgLinkCapacity() / 8

	const nTM = 8
	tms := make([]TrafficMatrix, nTM)
	want := make([]float64, nTM)
	r := rng.New(23)
	for i := range tms {
		tms[i] = gravityTM(ps, scale, r)
		mlu, _, err := NewMLUSolver(ps).Solve(tms[i])
		if err != nil {
			t.Fatalf("cold tm %d: %v", i, err)
		}
		want[i] = mlu
	}

	shared := NewMLUSolver(ps)
	done := make(chan struct{})
	var aux, workers sync.WaitGroup
	// Scraper: hammer the aggregated stats view while solves fold deltas in.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = shared.Stats()
			}
		}
	}()
	var solveErr atomic.Value
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(worker int) {
			defer workers.Done()
			for iter := 0; iter < 12; iter++ {
				i := (worker + iter) % nTM
				mlu, _, err := shared.Solve(tms[i])
				if err != nil {
					solveErr.Store(fmt.Errorf("worker %d iter %d: %v", worker, iter, err))
					return
				}
				if d := relDiff(mlu, want[i]); d > 1e-9 {
					solveErr.Store(fmt.Errorf("worker %d tm %d: MLU %.15g want %.15g (rel %.3g)", worker, i, mlu, want[i], d))
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(done)
	aux.Wait()
	if err := solveErr.Load(); err != nil {
		t.Fatal(err)
	}
}
