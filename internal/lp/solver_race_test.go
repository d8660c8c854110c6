package lp

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestStatsConcurrentScrape is the regression test for the SolverStats data
// race: the counters were plain ints, so any reader scraping a solver's
// stats while Solve was in flight raced with the increments (run this under
// -race to see the old layout fail). A dedicated reader goroutine snapshots
// continuously while the owner goroutine solves.
func TestStatsConcurrentScrape(t *testing.T) {
	s := NewSolver()
	s.Obs = obs.NewRegistry()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := s.Stats.Snapshot()
				if snap.ColdSolves > snap.Solves {
					t.Error("snapshot ordering violated")
					return
				}
				_ = s.Obs.Snapshot()
			}
		}
	}()

	const solves = 50
	p := NewProblem()
	for i := 0; i < solves; i++ {
		d := []float64{3, 5, 2}
		d[i%3] += float64(i%7) * 0.1
		buildTransportLP(p, d, []float64{4, 4, 4, 4})
		if sol := s.Solve(p); sol.Status != StatusOptimal {
			t.Fatalf("solve %d: status %v", i, sol.Status)
		}
	}
	close(stop)
	wg.Wait()

	snap := s.Stats.Snapshot()
	if snap.Solves != solves {
		t.Fatalf("Solves = %d, want %d", snap.Solves, solves)
	}
	if snap.Pivots == 0 {
		t.Fatal("no pivots recorded across 50 transport solves")
	}
	if got := s.Obs.Snapshot().Histograms["lp.solve.ms"].Count; got != solves {
		t.Fatalf("lp.solve.ms count = %d, want %d", got, solves)
	}
	if got := s.Obs.Snapshot().Histograms["lp.solve.pivots"].Count; got != solves {
		t.Fatalf("lp.solve.pivots count = %d, want %d", got, solves)
	}
}

// TestSnapshotSub pins the delta arithmetic the aggregation layers rely on.
func TestSnapshotSub(t *testing.T) {
	a := SolverStatsSnapshot{Solves: 10, ColdSolves: 4, Pivots: 100}
	b := SolverStatsSnapshot{Solves: 7, ColdSolves: 3, Pivots: 60}
	d := a.Sub(b)
	if d != (SolverStatsSnapshot{Solves: 3, ColdSolves: 1, Pivots: 40}) {
		t.Fatalf("Sub = %+v", d)
	}
}
