package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

const (
	geantCkpt    = "examples/gate/geant-quick.ckpt"
	geantClients = 2
	// geantTimeout is every job's timeout_ms: the latency limit a CI gate
	// states. A job it stops counts in deadline_frac. It is several times
	// the usual job, so a slower LP, FD or serve layer shows in the job
	// time instead of being cut off at the limit.
	geantTimeout = 30 * time.Second
)

// geantSpec is one gate job: the checked-in quick GÉANT checkpoint attacked
// gray-box (fused routing+MLU stage, FD gradients) with the default shared
// eval cache. The budget is 50 FD steps and one true evaluation, a cold
// Geant optimal-MLU solve, at the last step.
func geantSpec(seed uint64, label string) serve.JobSpec {
	return serve.JobSpec{
		Label:          label,
		CheckpointPath: geantCkpt,
		Scenario:       serve.Scenario{Opaque: true},
		Budget: serve.Budget{
			Iters: 50, Restarts: 1, EvalEvery: 50,
			Seed: seed, TimeoutMS: geantTimeout.Milliseconds(),
		},
	}
}

// job is one client round trip as the benchmark saw it.
type job struct {
	k      int
	traced bool
	span   int
	wall   time.Duration // submit to terminal event
	last   serve.Event
	view   serve.JobView
	err    error
}

// loads records, per job label, how long the target builder took and the
// first target it built (for replaying FD rows after the run).
type loads struct {
	mu     sync.Mutex
	at     map[string][2]time.Time
	target *core.AttackTarget
}

func (l *loads) build(spec *serve.JobSpec) (*core.AttackTarget, string, error) {
	t0 := time.Now()
	t, desc, err := serve.BuildFromCheckpoint(spec)
	t1 := time.Now()
	l.mu.Lock()
	l.at[spec.Label] = [2]time.Time{t0, t1}
	if l.target == nil && err == nil {
		l.target = t
	}
	l.mu.Unlock()
	return t, desc, err
}

// span returns when the builder ran for the job with the given label.
func (l *loads) span(label string) ([2]time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at, ok := l.at[label]
	return at, ok
}

func (l *loads) first() *core.AttackTarget {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.target
}

func runGeant(o runOpts) (*report, error) {
	rep := &report{}
	// Set-up is the target build every job pays before its search: load
	// the checkpoint and build the gray-box pipeline, with the daemon's
	// own builder. The first build is not timed; it pays for reading the
	// file into the page cache. The last build is the check target: the
	// output checks run on a target of the jobs' own scenario that the
	// benchmark owns.
	cspec := geantSpec(0, "check")
	var checkTarget *core.AttackTarget
	for i := 0; i <= geantSetups; i++ {
		runtime.GC() // a repetition must not pay for the garbage of the last one
		sp := o.tr.begin("setup.build", 0)
		t0 := time.Now()
		t, _, err := serve.BuildFromCheckpoint(&cspec)
		d := time.Since(t0)
		o.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("geant-gate-fd: building a target from %s: %w", geantCkpt, err)
		}
		if i > 0 {
			rep.setups = append(rep.setups, d)
		}
		checkTarget = t
	}

	ld := &loads{at: make(map[string][2]time.Time)}
	cfg := serve.Config{Workers: runtime.GOMAXPROCS(0), JobConcurrency: geantClients}
	if o.trace {
		cfg.BuildTarget = ld.build
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("geant-gate-fd: listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-served
		_ = srv.Shutdown(ctx)
	}()
	client := &serve.Client{Base: "http://" + ln.Addr().String()}

	// Closed loop: each client posts its next job once the previous one is
	// terminal, until the window closes.
	var mu sync.Mutex
	var jobs []*job
	next := 0
	c0, start := cpuSeconds(), time.Now()
	lastEnd := start
	var wg sync.WaitGroup
	for c := 0; c < geantClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < o.window && time.Now().Before(o.stopBy) {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				j := roundTrip(client, o, k)
				mu.Lock()
				jobs = append(jobs, j)
				if now := time.Now(); now.After(lastEnd) {
					lastEnd = now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cpu := cpuSeconds() - c0
	rep.window = lastEnd.Sub(start)
	// Outcomes in job order, so job k is outcome k on standard error.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].k < jobs[b].k })
	rep.clients = geantClients

	var fdRows, loadS, queueS, runS []float64
	var replayX []float64 // a job's own answer, for replaying FD rows
	var checks []geantCheck
	for _, j := range jobs {
		oc := outcome{wall: j.wall, traced: j.traced}
		switch {
		case j.err != nil:
			fmt.Fprintf(os.Stderr, "# job %d: %v\n", j.k, j.err)
			oc.failed = true
		case j.last.Type != "done" || j.view.State != serve.JobDone:
			fmt.Fprintf(os.Stderr, "# job %d ended %s: %s\n", j.k, j.view.State, j.view.Error)
			oc.failed = true
		default:
			oc.found, oc.ratio = j.last.Found, j.last.BestRatio
			oc.failed = j.last.StopReason == core.StopFaulted.String()
			oc.deadline = j.last.StopReason == core.StopDeadline.String()
			// Per-restart outcomes do not ride the result JSON; the daemon's
			// in-process job record has them.
			if sj := srv.Job(j.view.ID); sj != nil && sj.Result() != nil {
				oc.restartFaults, oc.restartRatios = restarts(sj.Result())
			}
			if !oc.found {
				break
			}
			res, err := core.ReadResultJSON(bytes.NewReader(j.view.Result))
			if err != nil {
				fmt.Fprintf(os.Stderr, "# job %d: reading result: %v\n", j.k, err)
				oc.failed = true
				break
			}
			fdRows = append(fdRows, float64(res.GradEvals))
			if replayX == nil {
				replayX = res.BestX
			}
			checks = append(checks, geantCheck{i: len(rep.outcomes), k: j.k, res: res})
		}
		if v := j.view; v.StartedAt != nil && v.FinishedAt != nil {
			queueS = append(queueS, v.StartedAt.Sub(v.CreatedAt).Seconds())
			runS = append(runS, v.FinishedAt.Sub(*v.StartedAt).Seconds())
			at, loaded := ld.span(v.Label)
			if loaded {
				loadS = append(loadS, at[1].Sub(at[0]).Seconds())
			}
			if j.traced {
				o.tr.add("serve.queue", j.span, v.CreatedAt, *v.StartedAt)
				run := o.tr.add("serve.run", j.span, *v.StartedAt, *v.FinishedAt)
				if loaded {
					o.tr.add("serve.load", run, at[0], at[1])
				}
			}
		}
		rep.outcomes = append(rep.outcomes, oc)
	}
	runChecks(checks, checkTarget, o.checkBy)
	for _, c := range checks {
		record(&rep.outcomes[c.i], c.v, "job", c.k)
	}

	if o.trace {
		text, err := client.Metrics(context.Background())
		if err != nil {
			return nil, fmt.Errorf("geant-gate-fd: scraping /metrics: %w", err)
		}
		m := parseProm(text)
		n := float64(max(1, len(jobs)))
		fdRowS := 0.0
		if t := ld.first(); t != nil && replayX != nil {
			var ts []float64
			for r := 0; r < 3; r++ {
				t0 := time.Now()
				_, _ = t.Pipeline.GradCtx(context.Background(), replayX)
				ts = append(ts, time.Since(t0).Seconds())
			}
			fdRowS = median(ts)
		}
		rows := 0.0
		for _, r := range fdRows {
			rows += r
		}
		loadSum := 0.0
		for _, s := range loadS {
			loadSum += s
		}
		lpSum := m["lp_solve_ms_sum"] / 1e3
		warm := 0.0
		if a := m["lp_warm_attempts"]; a > 0 {
			warm = m["lp_warm_hits"] / a
		}
		pivots := 0.0
		if s := m["lp_solves"]; s > 0 {
			pivots = m["lp_pivots"] / s
		}
		hit := 0.0
		if l := m["evalcache_hits"] + m["evalcache_misses"]; l > 0 {
			hit = m["evalcache_hits"] / l
		}
		c := tally(rep.outcomes)
		rep.layers = map[string]float64{
			"lp.solve_s_p50":          m[`lp_solve_ms{quantile="0.5"}`] / 1e3,
			"lp.solves":               m["lp_solves"] / n,
			"lp.cold_solves":          m["lp_cold_solves"] / n,
			"lp.warm_hit_ratio":       warm,
			"lp.pivots_per_solve":     pivots,
			"lp.cert_violations":      float64(c.certViolations),
			"core.grad_evals":         median(fdRows),
			"fd.row_s":                fdRowS,
			"fd.rows":                 median(fdRows),
			"search.oracle_share":     lpSum / max(cpu, 1e-9),
			"search.restart_faults":   float64(c.restartFaults),
			"evalcache.hit_ratio":     hit,
			"serve.queue_wait_s_p50":  median(queueS),
			"serve.run_s_p50":         median(runS),
			"serve.checkpoint_load_s": median(loadS),
			"serve.jobs_failed":       m["serve_jobs_failed"],
			"model.unexplained_share": 1 - (rows*fdRowS+lpSum+loadSum)/max(cpu, 1e-9),
			"trace.overhead_s":        overhead(rep.outcomes),
		}
	}
	rep.liveHeapMB = liveHeapMB()
	keep(checkTarget, srv)
	return rep, nil
}

// geantCheck is one job answer to re-check, and what the check found.
type geantCheck struct {
	i, k int // outcome index, job number
	res  *core.SearchResult
	v    verdict
}

// runChecks re-checks the answers after the window, one worker per CPU.
func runChecks(cs []geantCheck, target *core.AttackTarget, by time.Time) {
	next := make(chan *geantCheck)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				c.v = checkTE(target, c.res, by)
			}
		}()
	}
	for i := range cs {
		next <- &cs[i]
	}
	close(next)
	wg.Wait()
}

// roundTrip posts job k, follows its stream until it is terminal, and
// fetches its final view with the result attached.
func roundTrip(client *serve.Client, o runOpts, k int) *job {
	j := &job{k: k, traced: o.trace && k%2 == 1}
	label := fmt.Sprintf("job-%d", k)
	if j.traced {
		label += "-traced"
		j.span = o.tr.begin("job", 0)
	}
	// The daemon enforces timeout_ms; this client-side limit only keeps a
	// wedged daemon from hanging the run.
	ctx, cancel := context.WithTimeout(context.Background(), 3*geantTimeout)
	defer cancel()
	t0 := time.Now()
	view, err := client.Submit(ctx, geantSpec(searchSeed(o.seed, k), label))
	if err == nil {
		j.last, err = client.Stream(ctx, view.ID, nil)
	}
	j.wall = time.Since(t0)
	o.tr.end(j.span)
	if err == nil {
		j.view, err = client.Get(ctx, view.ID)
	}
	j.err = err
	return j
}
