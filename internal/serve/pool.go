// Package serve is the analyzer-as-a-service layer: a long-lived daemon that
// accepts a queue of analysis jobs (topology × model checkpoint × scenario ×
// budget) over a local HTTP API, shards every job's restarts across one
// work-stealing worker pool, streams incremental best-so-far results per job
// as NDJSON, and exposes the internal/obs registry at /metrics in Prometheus
// text format. The killer app is the CI gate for retrained models: POST a
// checkpoint, block until the adversarial ratio bound is computed, fail the
// build when it exceeds a threshold (cmd/e2eperf's serve and gate
// subcommands front this package).
//
// Everything rides machinery that already exists in internal/core: jobs are
// cancelled through contexts and report structured StopReasons with
// best-so-far results, component panics stay contained per restart, and
// telemetry flows through the shared obs registry that /metrics renders.
package serve

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Pool is the daemon's work-stealing executor. It implements core.Executor:
// every gradient search submits one task per restart (a one-restart
// group), so restarts from many concurrent jobs interleave over one fixed
// set of workers.
//
// Each worker owns a FIFO queue; Run spreads incoming tasks round-robin, a
// worker prefers its own queue, and an idle worker steals the oldest task
// from the first non-empty victim. Tasks are whole restart trajectories
// (milliseconds to minutes of work), so queue operations are vanishingly
// rare next to task bodies and a single mutex over all queues is cheaper
// than per-queue locking plus a lost-wakeup dance; the stealing structure —
// per-worker queues, owner preference, victim scans — is what balances the
// fleet when jobs finish at different times.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]func()
	closed bool
	rr     int // round-robin submit cursor

	wg sync.WaitGroup

	// Telemetry handles (nil without a registry: every increment a no-op).
	tasks  *obs.Counter
	steals *obs.Counter
	queued *obs.Gauge
}

// NewPool starts a pool of n workers (n <= 0 means GOMAXPROCS). reg, when
// non-nil, receives pool telemetry: serve.pool.tasks, serve.pool.steals and
// the serve.pool.queued gauge.
func NewPool(n int, reg *obs.Registry) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		queues: make([][]func(), n),
		tasks:  reg.Counter("serve.pool.tasks"),
		steals: reg.Counter("serve.pool.steals"),
		queued: reg.Gauge("serve.pool.queued"),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(i)
	}
	return p
}

// Run implements core.Executor: the task is queued for exactly-once
// execution on some worker. After Close the task runs on its own goroutine
// instead — a search mid-submit during shutdown must still terminate, never
// deadlock on a drained pool.
func (p *Pool) Run(task func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		go task()
		return
	}
	w := p.rr % len(p.queues)
	p.rr++
	p.queues[w] = append(p.queues[w], task)
	p.tasks.Inc()
	p.queued.Set(float64(p.queuedLocked()))
	p.mu.Unlock()
	p.cond.Signal()
}

// queuedLocked counts tasks waiting across all queues; p.mu must be held.
func (p *Pool) queuedLocked() int {
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// popLocked takes the next task for worker w: front of its own queue, else
// the oldest task of the first non-empty victim (a steal). p.mu must be
// held. Returns nil when every queue is empty.
func (p *Pool) popLocked(w int) func() {
	if q := p.queues[w]; len(q) > 0 {
		task := q[0]
		p.queues[w] = q[1:]
		return task
	}
	for i := 1; i < len(p.queues); i++ {
		v := (w + i) % len(p.queues)
		if q := p.queues[v]; len(q) > 0 {
			task := q[0]
			p.queues[v] = q[1:]
			p.steals.Inc()
			return task
		}
	}
	return nil
}

func (p *Pool) worker(w int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if task := p.popLocked(w); task != nil {
			p.queued.Set(float64(p.queuedLocked()))
			p.mu.Unlock()
			task()
			p.mu.Lock()
			continue
		}
		if p.closed {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close stops the pool: workers drain every queued task, then exit. Close
// blocks until the drain completes. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
