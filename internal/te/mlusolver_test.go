package te

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestMLUSolverMatchesFreshSolver perturbs a demand matrix across many
// solves of one MLUSolver and checks each optimal MLU against a freshly
// built solver, within 1e-9; the returned splits must achieve the reported
// MLU. TestMLUSolveHistoryFree holds the bitwise version of this contract.
func TestMLUSolverMatchesFreshSolver(t *testing.T) {
	ps := abilenePS()
	reused := NewMLUSolver(ps)
	r := rng.New(3)
	tm := make(TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = r.Float64() * 3
	}
	for iter := 0; iter < 10; iter++ {
		for i := range tm {
			tm[i] *= 0.9 + 0.2*r.Float64()
			if r.Float64() < 0.05 {
				tm[i] = 0 // zero demands change the LP's shape
			}
		}
		got, splits, err := reused.Solve(tm)
		if err != nil {
			t.Fatalf("iter %d: reused solver: %v", iter, err)
		}
		want, _, err := NewMLUSolver(ps).Solve(tm)
		if err != nil {
			t.Fatalf("iter %d: fresh solve: %v", iter, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: reused MLU %.12f, fresh %.12f", iter, got, want)
		}
		if err := ValidateSplits(ps, splits); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		achieved, _ := MLU(ps, tm, splits)
		if math.Abs(achieved-got) > 1e-6 {
			t.Fatalf("iter %d: splits achieve MLU %.9f, solver reported %.9f", iter, achieved, got)
		}
	}
}

// TestOptimalMLUCachedSolverStable checks the package-level cache: repeated
// OptimalMLU calls on one path set must keep returning the same objective
// for the same matrix, bit for bit.
func TestOptimalMLUCachedSolverStable(t *testing.T) {
	ps := trianglePS()
	tm := make(TrafficMatrix, ps.NumPairs())
	r := rng.New(9)
	for i := range tm {
		tm[i] = r.Float64() * 2
	}
	first, _, err := OptimalMLU(ps, tm)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		again, _, err := OptimalMLU(ps, tm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(again) != math.Float64bits(first) {
			t.Fatalf("call %d: MLU %.17g, first call %.17g", k, again, first)
		}
	}
}

// TestSolverForConcurrentFirstUse races the first solves on a fresh path
// set: however many goroutines build an MLUSolver for it, exactly one is
// memoized and serves every solve, so SolverStatsFor counts all of them.
// Run under -race.
func TestSolverForConcurrentFirstUse(t *testing.T) {
	ps := paths.NewPathSet(topology.Abilene(), 4)
	tm := make(TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = 0.05 * float64(1+i%7)
	}
	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, _, err := OptimalMLU(ps, tm); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := SolverStatsFor(ps).Solves; got != goroutines {
		t.Fatalf("SolverStatsFor counts %d solves, want %d: more than one MLUSolver served", got, goroutines)
	}
	if solverFor(ps) != solverFor(ps) {
		t.Fatal("solverFor returned different solvers for one path set")
	}
}

// lateTimerCtx is a context whose deadline has passed but whose timer has
// not fired yet: Deadline reports the past, Err still reports nil — the
// window in which the simplex, reading the clock itself, stops on the
// deadline first.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestSolveCtxDeadlineBeforeTimer pins that a solve the simplex stopped on
// the context's deadline reports context.DeadlineExceeded, not a StatusError:
// the search engines treat a StatusError as a failed step and retire a
// restart after three, so a deadline seen first by the LP used to surface
// as a faulted search instead of a deadline stop.
func TestSolveCtxDeadlineBeforeTimer(t *testing.T) {
	ps := paths.NewPathSet(topology.Abilene(), 4)
	tm := make(TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = 0.05 * float64(1+i%7)
	}
	_, _, err := NewMLUSolver(ps).SolveCtx(lateTimerCtx{context.Background()}, tm)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMLUSolveHistoryFree pins that an optimum is a function of its traffic
// matrix alone. One MLUSolver solves 200 matrices (100 gravity, 100 with
// ~70% of pairs zero, which changes the LP's shape) in order, then again in
// reverse, with a GC every 7th solve so the solver pool is emptied at
// varying points. Every optimum and split vector of the reverse pass must
// equal the forward pass's bit for bit, on Abilene and GÉANT.
func TestMLUSolveHistoryFree(t *testing.T) {
	for _, topo := range []struct {
		name string
		g    *topology.Graph
	}{{"abilene", topology.Abilene()}, {"geant", topology.Geant()}} {
		ps := paths.NewPathSet(topo.g, 4)
		r := rng.New(13)
		scale := topo.g.AvgLinkCapacity() / 8
		tms := make([]TrafficMatrix, 200)
		for k := range tms {
			tms[k] = gravityTM(ps, scale, r)
			if k >= 100 {
				for i := range tms[k] {
					if r.Float64() < 0.7 {
						tms[k][i] = 0
					}
				}
			}
		}
		s := NewMLUSolver(ps)
		solves := 0
		solve := func(tm TrafficMatrix) (float64, Splits) {
			if solves++; solves%7 == 0 {
				runtime.GC()
			}
			mlu, splits, err := s.Solve(tm)
			if err != nil {
				t.Fatalf("%s: %v", topo.name, err)
			}
			return mlu, splits
		}
		mlus := make([]float64, len(tms))
		splits := make([]Splits, len(tms))
		for k, tm := range tms {
			mlus[k], splits[k] = solve(tm)
		}
		differ := 0
		for k := len(tms) - 1; k >= 0; k-- {
			mlu, sp := solve(tms[k])
			same := math.Float64bits(mlu) == math.Float64bits(mlus[k])
			for i := range sp {
				same = same && math.Float64bits(sp[i]) == math.Float64bits(splits[k][i])
			}
			if !same {
				differ++
			}
		}
		if differ != 0 {
			t.Errorf("%s: %d of %d optima or split vectors depend on solve order", topo.name, differ, len(tms))
		}
	}
}
