package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// sumStage is a trivially differentiable identity-sum pipeline stage.
type sumStage struct{}

func (sumStage) Name() string { return "sum" }

func (sumStage) Forward(x []float64) []float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return []float64{s}
}

func (sumStage) VJP(x, ybar []float64) []float64 {
	g := make([]float64, len(x))
	for i := range g {
		g[i] = ybar[0]
	}
	return g
}

// sinesStage is the differentiable multi-modal stage Σ sin(3x_i + i).
type sinesStage struct{}

func (sinesStage) Name() string { return "sines" }

func (sinesStage) Forward(x []float64) []float64 {
	s := 5.0
	for i, v := range x {
		s += math.Sin(3*v + float64(i))
	}
	return []float64{s}
}

func (sinesStage) VJP(x, ybar []float64) []float64 {
	g := make([]float64, len(x))
	for i, v := range x {
		g[i] = ybar[0] * 3 * math.Cos(3*v+float64(i))
	}
	return g
}

// keyedQuantum is the cache key step of keyed fleets (Config.CacheQuantum).
const keyedQuantum = 1e-3

// syntheticFleet is a TargetBuilder seam: every job gets a fresh cheap
// target, with optional per-label hooks called on each true evaluation (for
// channel-forced schedules). A plain fleet's target is an identity-sum
// pipeline scored by its own output. A keyed fleet's is a sinesStage
// pipeline scored at the point rounded to keyedQuantum, so every point of
// one cache bucket scores identically and a shared-cache hit returns
// exactly what the job would have computed.
type syntheticFleet struct {
	mu    sync.Mutex
	hooks map[string]func(call int)
	keyed bool
}

func newSyntheticFleet() *syntheticFleet {
	return &syntheticFleet{hooks: make(map[string]func(int))}
}

func (f *syntheticFleet) build(spec *JobSpec) (*core.AttackTarget, string, error) {
	f.mu.Lock()
	hook := f.hooks[spec.Label]
	keyed := f.keyed
	f.mu.Unlock()
	var stage core.Component = sumStage{}
	if keyed {
		stage = sinesStage{}
	}
	p := core.NewPipeline(stage)
	var calls atomic.Int64
	return &core.AttackTarget{
		Pipeline:  p,
		InputDim:  4,
		MaxDemand: 1,
		RatioOverride: func(x []float64) (float64, float64, float64, error) {
			n := calls.Add(1)
			if hook != nil {
				hook(int(n))
			}
			if keyed {
				q := make([]float64, len(x))
				for i, v := range x {
					q[i] = math.Round(v/keyedQuantum) * keyedQuantum
				}
				x = q
			}
			sys := p.EvalScalar(x)
			return sys, sys, 1, nil
		},
	}, "synthetic dim=4", nil
}

// testServer boots a Server over the fleet plus an httptest front end.
func testServer(t *testing.T, fleet *syntheticFleet, cfg Config) (*Server, *Client) {
	t.Helper()
	if fleet != nil {
		cfg.BuildTarget = fleet.build
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	fleet := newSyntheticFleet()
	_, c := testServer(t, fleet, Config{})
	ctx := context.Background()

	view, err := c.Submit(ctx, JobSpec{
		Label:     "lifecycle",
		Threshold: 1000, // sum of 4 coords capped at 1 each: always passes
		Budget:    Budget{Iters: 60, Restarts: 2, EvalEvery: 1, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}

	var types []string
	last, err := c.Stream(ctx, view.ID, func(ev Event) error {
		types = append(types, ev.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(types) < 3 || types[0] != "queued" || types[1] != "running" {
		t.Fatalf("event order %v, want queued, running, ...", types)
	}
	improved := 0
	for _, ty := range types {
		if ty == "improved" {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("no incremental best-so-far events streamed")
	}
	if last.Type != "done" || !last.Found || last.BestRatio <= 0 {
		t.Fatalf("terminal event %+v, want done with a positive best ratio", last)
	}
	if last.Pass == nil || !*last.Pass {
		t.Fatalf("threshold 1000 must pass, got %+v", last.Pass)
	}

	final, err := c.Get(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || len(final.Result) == 0 {
		t.Fatalf("final view state=%s result bytes=%d", final.State, len(final.Result))
	}
	res, err := core.ReadResultJSON(bytes.NewReader(final.Result))
	if err != nil {
		t.Fatalf("result JSON does not round-trip: %v", err)
	}
	if res.BestRatio != last.BestRatio {
		t.Fatalf("result ratio %v != done-event ratio %v", res.BestRatio, last.BestRatio)
	}
}

// TestGateMatchesDirectSearch pins the daemon's core contract: a gate run
// through the job queue and work-stealing pool returns bitwise the same
// adversarial ratio as a direct GradientSearchContext with the same seed and
// budget — per-restart trajectories are scheduling-independent.
func TestGateMatchesDirectSearch(t *testing.T) {
	fleet := newSyntheticFleet()
	_, c := testServer(t, fleet, Config{})

	spec := JobSpec{
		Label:     "gate",
		Threshold: 1e9,
		Budget: Budget{
			Iters: 60, Restarts: 2, EvalEvery: 1, Seed: 42,
			EvalCache: -1, // bitwise comparisons leave memoization out
		},
	}

	// Direct reference run with the exact config the daemon derives.
	target, _, err := fleet.build(&spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultGradientConfig()
	cfg.Iters, cfg.Restarts, cfg.EvalEvery, cfg.Seed = 60, 2, 1, 42
	direct, err := core.GradientSearchContext(context.Background(), target, cfg)
	if err != nil {
		t.Fatal(err)
	}

	out, err := c.Gate(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pass {
		t.Fatalf("gate failed under threshold 1e9: ratio %v", out.Ratio)
	}
	if out.Ratio != direct.BestRatio {
		t.Fatalf("gate ratio %v != direct search ratio %v (must be bitwise equal)",
			out.Ratio, direct.BestRatio)
	}
}

// TestCancelMidSearchReturnsBestSoFar is the ISSUE's serve-mode cancellation
// contract: cancelling a running job does not discard it — the search winds
// down and the job completes with its best-so-far result and StopReason
// "cancelled".
func TestCancelMidSearchReturnsBestSoFar(t *testing.T) {
	fleet := newSyntheticFleet()
	_, c := testServer(t, fleet, Config{})
	ctx := context.Background()

	view, err := c.Submit(ctx, JobSpec{
		Label: "cancel-me",
		Budget: Budget{
			Iters:    50_000_000, // far beyond any test budget: only cancel ends it
			Restarts: 2, EvalEvery: 1, Patience: -1, Seed: 9, EvalCache: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var cancelOnce sync.Once
	last, err := c.Stream(ctx, view.ID, func(ev Event) error {
		if ev.Type == "improved" {
			cancelOnce.Do(func() {
				if err := c.Cancel(ctx, view.ID); err != nil {
					t.Errorf("cancel: %v", err)
				}
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Type != "done" {
		t.Fatalf("terminal event %q, want done (cancelled mid-search still completes)", last.Type)
	}
	if last.StopReason != core.StopCancelled.String() {
		t.Fatalf("stop reason %q, want %q", last.StopReason, core.StopCancelled)
	}
	if !last.Found || last.BestRatio <= 0 {
		t.Fatalf("cancelled job lost its best-so-far: %+v", last)
	}

	final, err := c.Get(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ReadResultJSON(bytes.NewReader(final.Result))
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != core.StopCancelled || !res.Found {
		t.Fatalf("result stop=%v found=%v, want cancelled best-so-far", res.StopReason, res.Found)
	}
}

// jobResult runs spec to completion on c and returns its search result.
func jobResult(t *testing.T, c *Client, spec JobSpec) *core.SearchResult {
	t.Helper()
	ctx := context.Background()
	view, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	return finishedResult(t, c, view.ID)
}

// finishedResult waits for job id to finish and returns its search result.
func finishedResult(t *testing.T, c *Client, id string) *core.SearchResult {
	t.Helper()
	ctx := context.Background()
	if last, err := c.Stream(ctx, id, nil); err != nil || last.Type != "done" {
		t.Fatalf("job %s ended %q err=%v", id, last.Type, err)
	}
	final, err := c.Get(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ReadResultJSON(bytes.NewReader(final.Result))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConcurrentJobsSharedCacheMatchAlone is the daemon-level contract of
// the per-digest memo cache: two jobs on the same checkpoint digest share
// one cache, job A starts and finishes strictly inside job B's lifetime (B
// is channel-held inside its 30th oracle call), and each job returns the
// best_ratio and best_x it returns when run alone on a fresh daemon.
func TestConcurrentJobsSharedCacheMatchAlone(t *testing.T) {
	specB := JobSpec{
		Label:          "B",
		CheckpointPath: "shared-ckpt", // same digest as A: one shared cache
		Budget: Budget{
			Iters: 400, Restarts: 1, EvalEvery: 1, Patience: -1, Seed: 7,
		},
	}
	specA := JobSpec{
		Label:          "A",
		CheckpointPath: "shared-ckpt",
		// B's seed and restart count: A scores B's first 25 points, which B
		// cached before its gate (a longer A would wait on B's held call).
		Budget: Budget{
			Iters: 25, Restarts: 1, EvalEvery: 1, Patience: -1, Seed: 7,
		},
	}
	keyedFleet := func() *syntheticFleet {
		f := newSyntheticFleet()
		f.keyed = true
		return f
	}
	alone := func(spec JobSpec) *core.SearchResult {
		_, c := testServer(t, keyedFleet(), Config{CacheQuantum: keyedQuantum})
		return jobResult(t, c, spec)
	}
	wantA, wantB := alone(specA), alone(specB)

	fleet := keyedFleet()
	bMid := make(chan struct{})
	aDone := make(chan struct{})
	var gate sync.Once
	fleet.hooks["B"] = func(call int) {
		if call == 30 {
			gate.Do(func() {
				close(bMid)
				<-aDone
			})
		}
	}
	s, c := testServer(t, fleet, Config{JobConcurrency: 2, CacheQuantum: keyedQuantum})
	viewB, err := c.Submit(context.Background(), specB)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bMid:
	case <-time.After(30 * time.Second):
		t.Fatal("job B never reached its gate")
	}
	gotA := jobResult(t, c, specA)
	close(aDone)
	gotB := finishedResult(t, c, viewB.ID)

	s.mu.Lock()
	nCaches := len(s.caches)
	s.mu.Unlock()
	if nCaches != 1 {
		t.Fatalf("expected one shared cache for one digest, got %d", nCaches)
	}
	if st := s.sharedCache(&specB).Stats(); st.Hits == 0 {
		t.Fatal("test exercised no cache hits")
	}
	for _, job := range []struct {
		name      string
		got, want *core.SearchResult
	}{{"A", gotA, wantA}, {"B", gotB, wantB}} {
		if !job.got.Found || job.got.BestRatio != job.want.BestRatio {
			t.Fatalf("job %s: best_ratio %v (found %v), alone %v", job.name, job.got.BestRatio, job.got.Found, job.want.BestRatio)
		}
		if !reflect.DeepEqual(job.got.BestX, job.want.BestX) {
			t.Fatalf("job %s: best_x %v, alone %v", job.name, job.got.BestX, job.want.BestX)
		}
	}
}

var servePromLine = regexp.MustCompile(
	`^(# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)|.*)|[a-zA-Z_:][a-zA-Z0-9_:]*(\{quantile="[0-9.]+"\})? (NaN|[+-]Inf|[-+0-9.eE]+))$`)

func TestMetricsEndpointAndJobCompletionDump(t *testing.T) {
	fleet := newSyntheticFleet()
	var dump bytes.Buffer
	s, c := testServer(t, fleet, Config{MetricsDump: &dump})
	ctx := context.Background()

	if _, err := c.Gate(ctx, JobSpec{
		Label:  "metrics",
		Budget: Budget{Iters: 40, Restarts: 2, EvalEvery: 1, Seed: 3},
	}, nil); err != nil {
		t.Fatal(err)
	}

	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !servePromLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE serve_jobs_completed counter\nserve_jobs_completed 1\n",
		"# TYPE serve_pool_tasks counter\n",
		"# TYPE serve_job_elapsed_ms summary\n",
		"search_improvements ",
		"search_steps ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Search counters are per search, not per restart: request-supplied
	// restart counts must not mint new series.
	if strings.Contains(body, "search_restart_") {
		t.Fatalf("/metrics has per-restart series:\n%s", body)
	}

	// Raw endpoint checks the CI smoke test also relies on.
	resp, err := c.client().Get(c.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}

	// The serve-mode -metrics flush: a snapshot landed when the job
	// completed, not at process exit. Shutdown first so the runner's write
	// happens-before our read.
	shCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "# metrics after job j1") ||
		!strings.Contains(dump.String(), "serve.jobs.completed") {
		t.Fatalf("job-completion metrics dump missing or empty:\n%s", dump.String())
	}
}

func TestSubmitValidation(t *testing.T) {
	// Default builder: a checkpoint is mandatory.
	s := New(Config{Workers: 1, JobConcurrency: 1})
	defer s.Shutdown(context.Background())
	if _, err := s.Submit(JobSpec{Label: "no-checkpoint"}); err == nil {
		t.Fatal("submit without checkpoint must fail under the default builder")
	}

	fleet := newSyntheticFleet()
	_, c := testServer(t, fleet, Config{Workers: 1, JobConcurrency: 1})
	if _, err := c.Submit(context.Background(), JobSpec{
		Budget: Budget{Iters: -1},
	}); err == nil {
		t.Fatal("negative budget must be rejected")
	}
	resp, err := c.client().Post(c.url("/jobs"), "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestOraclePanicJobFaultsDaemonSurvives: a job whose scoring oracle
// panics on every call is contained like any component fault. Each restart
// runs as a task on the daemon's pool, which has no recover() of its own, so
// an escaped panic would kill the process; instead the job ends done with
// stop_reason faulted, and the next job on the same daemon completes.
func TestOraclePanicJobFaultsDaemonSurvives(t *testing.T) {
	fleet := newSyntheticFleet()
	fleet.hooks["boom"] = func(int) { panic("oracle blew up") }
	_, c := testServer(t, fleet, Config{JobConcurrency: 1})
	ctx := context.Background()

	budget := Budget{Iters: 20, Restarts: 3, EvalEvery: 5, Seed: 4, EvalCache: -1}
	for _, job := range []struct{ label, stop string }{
		{"boom", core.StopFaulted.String()},
		{"after", core.StopConverged.String()},
	} {
		view, err := c.Submit(ctx, JobSpec{Label: job.label, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		last, err := c.Stream(ctx, view.ID, func(Event) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if last.Type != "done" || last.StopReason != job.stop {
			t.Fatalf("job %s: terminal event %q stop_reason %q, want done / %s", job.label, last.Type, last.StopReason, job.stop)
		}
	}
}

// TestTerminalStateCarriesTerminalEvent pins terminal-event atomicity: while
// many short synthetic jobs (one true evaluation, at the last iteration)
// run and stream concurrently, a checker repeatedly asserts under j.mu that
// a terminal state always comes with a terminal last event, and every
// stream must end on its job's terminal event. A state set before its event
// is appended lets a streamer see "terminal, nothing new" and hang up on
// the last "improved" line.
func TestTerminalStateCarriesTerminalEvent(t *testing.T) {
	fleet := newSyntheticFleet()
	s, c := testServer(t, fleet, Config{JobConcurrency: 4})
	ctx := context.Background()

	stop := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, j := range s.Jobs() {
				j.mu.Lock()
				if j.state.terminal() {
					if n := len(j.events); n == 0 || !JobState(j.events[n-1].Type).terminal() {
						t.Errorf("job %s is %s but its events end %+v", j.ID, j.state, j.events[max(0, n-1):])
					}
				}
				j.mu.Unlock()
			}
		}
	}()

	// Rounds stay below maxTerminalJobs, so no job is evicted before its
	// stream has replayed it.
	const rounds, perRound = 6, 16
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			view, err := c.Submit(ctx, JobSpec{
				Label:  fmt.Sprintf("r%d-%d", round, i),
				Budget: Budget{Iters: 4, Restarts: 1, EvalEvery: 4, Seed: uint64(round*perRound + i + 1), EvalCache: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				last, err := c.Stream(ctx, view.ID, nil)
				if err != nil {
					t.Errorf("job %s stream: %v", view.ID, err)
					return
				}
				if last.Type != "done" {
					t.Errorf("job %s stream ended on %q, want the terminal done event", view.ID, last.Type)
				}
			}()
		}
		wg.Wait()
	}
	close(stop)
	<-checked
}

// TestJobHistoryRetention pins the bounded job history: with more jobs
// submitted than maxTerminalJobs, only the newest maxTerminalJobs terminal
// jobs remain, evicted IDs answer 404 on /jobs/{id} and /stream, a job is
// GET-able right after its own terminal event, and queued and running jobs
// survive any number of evictions.
func TestJobHistoryRetention(t *testing.T) {
	fleet := newSyntheticFleet()
	release := make(chan struct{})
	started := make(chan struct{}, 2) // one send per held job
	hold := func(call int) {
		if call == 1 {
			started <- struct{}{}
			<-release
		}
	}
	fleet.hooks["running"] = hold
	fleet.hooks["queued"] = hold
	// Fillers run strictly one after another, each only once the client of
	// the previous one has read its terminal event and fetched its view.
	const fillers = maxTerminalJobs + 8
	fetched := make([]chan struct{}, fillers)
	for k := range fetched {
		fetched[k] = make(chan struct{})
		if k > 0 {
			prev := fetched[k-1]
			fleet.hooks[fmt.Sprintf("f%d", k)] = func(int) { <-prev }
		}
	}
	s, c := testServer(t, fleet, Config{JobConcurrency: 2})
	t.Cleanup(func() { close(release) }) // runs before the server shuts down
	ctx := context.Background()
	holdBudget := Budget{Iters: 10, Restarts: 1, EvalEvery: 1, Seed: 1, EvalCache: -1}
	fillBudget := Budget{Iters: 2, Restarts: 1, EvalEvery: 2, Seed: 1, EvalCache: -1}

	running, err := c.Submit(ctx, JobSpec{Label: "running", Budget: holdBudget})
	if err != nil {
		t.Fatal(err)
	}
	<-started // one runner is now held; the other drains the fillers

	ids := make([]string, fillers)
	var wg sync.WaitGroup
	for k := 0; k < fillers; k++ {
		view, err := c.Submit(ctx, JobSpec{Label: fmt.Sprintf("f%d", k), Budget: fillBudget})
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = view.ID
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(fetched[k])
			last, err := c.Stream(ctx, view.ID, nil)
			if err != nil || last.Type != "done" {
				t.Errorf("filler %d: stream ended on %q (err %v)", k, last.Type, err)
				return
			}
			if v, err := c.Get(ctx, view.ID); err != nil || v.State != JobDone {
				t.Errorf("filler %d not GET-able right after its terminal event: %+v, %v", k, v, err)
			}
		}()
	}
	// Queued behind every filler: it waits while all of them finish.
	queued, err := c.Submit(ctx, JobSpec{Label: "queued", Budget: holdBudget})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	<-started // the queued job starts only after the last filler ended

	terminal := 0
	for _, j := range s.Jobs() {
		if j.State().terminal() {
			terminal++
		}
	}
	if terminal != maxTerminalJobs {
		t.Fatalf("%d terminal jobs retained, want %d", terminal, maxTerminalJobs)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if v, err := c.Get(ctx, id); err != nil || v.State != JobRunning {
			t.Fatalf("held job %s lost or not running: %+v, %v", id, v, err)
		}
	}
	for k, id := range ids {
		want := http.StatusOK
		if k < fillers-maxTerminalJobs { // finished before the newest 32
			want = http.StatusNotFound
		}
		for _, path := range []string{"/jobs/" + id, "/jobs/" + id + "/stream"} {
			resp, err := c.client().Get(c.url(path))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("filler %d %s: status %d, want %d", k, path, resp.StatusCode, want)
			}
		}
	}
}

// TestSubmitBodyCap pins the POST /jobs body cap: an inline copy of the
// checked-in Geant gate checkpoint is admitted, a body over maxJobBody is
// refused with 413.
func TestSubmitBodyCap(t *testing.T) {
	fleet := newSyntheticFleet()
	_, c := testServer(t, fleet, Config{Workers: 1, JobConcurrency: 1})
	ckpt, err := os.ReadFile("../../examples/gate/geant-quick.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Gate(context.Background(), JobSpec{
		Label: "inline-geant", Checkpoint: ckpt,
		Budget: Budget{Iters: 2, Restarts: 1, EvalEvery: 2, Seed: 1},
	}, nil); err != nil {
		t.Fatalf("inline %d-byte checkpoint refused: %v", len(ckpt), err)
	}

	body := io.MultiReader(
		strings.NewReader(`{"label":"`),
		io.LimitReader(zeros{}, maxJobBody),
		strings.NewReader(`"}`))
	resp, err := c.client().Post(c.url("/jobs"), "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// zeros is an endless reader of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestShutdownCancelsQueuedJobs pins shutdown with jobs still queued: the
// runner that sees the server closed cancels them, each stream ends on its
// "cancelled" event, and Shutdown returns.
func TestShutdownCancelsQueuedJobs(t *testing.T) {
	fleet := newSyntheticFleet()
	release := make(chan struct{})
	started := make(chan struct{})
	fleet.hooks["running"] = func(call int) {
		if call == 1 {
			close(started)
			<-release
		}
	}
	s, c := testServer(t, fleet, Config{JobConcurrency: 1})
	ctx := context.Background()
	budget := Budget{Iters: 10, Restarts: 1, EvalEvery: 1, Seed: 1, EvalCache: -1}
	if _, err := c.Submit(ctx, JobSpec{Label: "running", Budget: budget}); err != nil {
		t.Fatal(err)
	}
	<-started // the only runner is held; the next jobs stay queued
	var queued []string
	for i := 0; i < 2; i++ {
		v, err := c.Submit(ctx, JobSpec{Label: fmt.Sprintf("q%d", i), Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, v.ID)
	}

	shut := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		shut <- s.Shutdown(sctx)
	}()
	for closed := false; !closed; {
		s.mu.Lock()
		closed = s.closed
		s.mu.Unlock()
		runtime.Gosched()
	}
	close(release)
	if err := <-shut; err != nil {
		t.Fatalf("shutdown with queued jobs: %v", err)
	}
	for _, id := range queued {
		j := s.Job(id)
		if j == nil {
			t.Fatalf("queued job %s evicted", id)
		}
		evs, terminal := j.await(ctx, 0)
		if !terminal || evs[len(evs)-1].Type != "cancelled" {
			t.Fatalf("queued job %s ended %v with events %+v, want cancelled", id, j.State(), evs)
		}
	}
}
