package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestPoolRunsEveryTaskExactlyOnce(t *testing.T) {
	p := NewPool(4, nil)
	var ran atomic.Int64
	var wg sync.WaitGroup
	const n = 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		p.Run(func() {
			ran.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	p.Close()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d of %d tasks", got, n)
	}
}

// TestPoolStealsFromBlockedWorker pins the work-stealing behavior: a task
// queued behind a long-running one on a busy worker is executed by an idle
// worker instead of waiting. The schedule is channel-forced: task A blocks
// its worker until task C (queued behind A's position in round-robin order)
// has run — which can only happen if another worker took it.
func TestPoolStealsFromBlockedWorker(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(2, reg)
	defer p.Close()

	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	p.Run(func() { // lands on worker 0's queue
		defer wg.Done()
		<-release
	})
	p.Run(func() { // worker 1's queue
		defer wg.Done()
	})
	p.Run(func() { // worker 0's queue, behind the blocked task
		defer wg.Done()
		close(release) // unblocks A — proves this ran while A was blocked
	})
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["serve.pool.tasks"]; got != 3 {
		t.Fatalf("serve.pool.tasks = %d, want 3", got)
	}
	if got := snap.Counters["serve.pool.steals"]; got < 1 {
		t.Fatalf("serve.pool.steals = %d, want >= 1 (idle worker never stole)", got)
	}
}

// TestPoolRunAfterClose: tasks submitted to a closed pool still execute
// (on their own goroutine) so an in-flight search can never deadlock on a
// drained pool.
func TestPoolRunAfterClose(t *testing.T) {
	p := NewPool(2, nil)
	p.Close()
	done := make(chan struct{})
	p.Run(func() { close(done) })
	<-done
}

// BenchmarkPoolThroughput is the fleet-throughput benchmark ROADMAP item 3
// left open: complete gradient searches per hour when a fleet of concurrent
// jobs shards all its restarts over one work-stealing pool — the number a
// capacity planner needs to size a gating daemon. Uses the same synthetic
// cheap target as the serve tests so the measured cost is search machinery
// plus pool scheduling, not model training.
func BenchmarkPoolThroughput(b *testing.B) {
	fleet := newSyntheticFleet()
	pool := NewPool(0, obs.NewRegistry())
	defer pool.Close()

	const inflight = 4
	sem := make(chan struct{}, inflight)
	start := time.Now()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			target, _, err := fleet.build(&JobSpec{Label: fmt.Sprintf("bench-%d", i)})
			if err != nil {
				b.Error(err)
				return
			}
			cfg := core.DefaultGradientConfig()
			cfg.Iters = 30
			cfg.Restarts = 6
			cfg.Seed = uint64(i + 1)
			cfg.Executor = pool
			if _, err := core.GradientSearch(target, cfg); err != nil {
				b.Error(err)
			}
		}(i)
	}
	wg.Wait()
	b.StopTimer()
	if el := time.Since(start).Hours(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "searches/hour")
	}
}
