package te

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestMLUSolverMatchesFreshSolver perturbs a demand matrix across many
// solves of one MLUSolver (which warm-starts internally) and checks each
// optimal MLU against a freshly built solver, within 1e-9. Split vectors are
// not compared — degenerate optima may pick different vertices — but the
// returned splits must achieve the reported MLU.
func TestMLUSolverMatchesFreshSolver(t *testing.T) {
	ps := abilenePS()
	warm := NewMLUSolver(ps)
	r := rng.New(3)
	tm := make(TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = r.Float64() * 3
	}
	for iter := 0; iter < 10; iter++ {
		for i := range tm {
			tm[i] *= 0.9 + 0.2*r.Float64()
			if r.Float64() < 0.05 {
				tm[i] = 0 // shape changes exercise the cold path too
			}
		}
		got, splits, err := warm.Solve(tm)
		if err != nil {
			t.Fatalf("iter %d: warm solve: %v", iter, err)
		}
		want, _, err := NewMLUSolver(ps).Solve(tm)
		if err != nil {
			t.Fatalf("iter %d: fresh solve: %v", iter, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: warm MLU %.12f, fresh %.12f", iter, got, want)
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
// for the same matrix within float tolerance (warm solves may pivot in a
// different order than the first cold solve, shifting the last bits).
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
		if math.Abs(again-first) > 1e-9 {
			t.Fatalf("call %d: MLU %.15f, first call %.15f", k, again, first)
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
