package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// JobSpec describes one analysis job: which trained model to attack, under
// which scenario, with what search budget. It is the POST /jobs request body.
type JobSpec struct {
	// Label is a free-form tag echoed in events and listings.
	Label string `json:"label,omitempty"`
	// Checkpoint is an inline experiments.SaveSetup checkpoint (base64 in
	// JSON). CheckpointPath names one on the daemon's filesystem instead.
	// Exactly one of the two is required under the default target builder.
	Checkpoint     []byte   `json:"checkpoint,omitempty"`
	CheckpointPath string   `json:"checkpoint_path,omitempty"`
	Scenario       Scenario `json:"scenario"`
	Budget         Budget   `json:"budget"`
	// Threshold, when positive, is the CI gate: the done event carries
	// pass = (best ratio <= threshold).
	Threshold float64 `json:"threshold,omitempty"`
}

// Scenario selects how the model under analysis is exposed to the search.
// The zero value is the white-box chain-rule pipeline, matching `e2eperf
// attack` without -opaque.
type Scenario struct {
	// Opaque fuses routing+MLU into a gray-box stage with FD gradients.
	Opaque bool `json:"opaque,omitempty"`
	// FDStep overrides the finite-difference probe step (default 1e-4).
	FDStep float64 `json:"fd_step,omitempty"`
}

// Budget bounds the gradient search. Zero fields inherit
// core.DefaultGradientConfig; Seed 0 inherits the default seed.
type Budget struct {
	Iters     int     `json:"iters,omitempty"`
	Restarts  int     `json:"restarts,omitempty"`
	T         int     `json:"t,omitempty"`
	AlphaD    float64 `json:"alpha_d,omitempty"`
	AlphaF    float64 `json:"alpha_f,omitempty"`
	AlphaL    float64 `json:"alpha_l,omitempty"`
	EvalEvery int     `json:"eval_every,omitempty"`
	// Patience: 0 inherits the default; negative disables early stopping.
	Patience int    `json:"patience,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// EvalCache: 0 shares a memo cache with every other job on the same
	// checkpoint digest + scenario (the daemon's cross-job speedup); -1
	// disables caching (what bitwise gate comparisons want); >0 gives this
	// job a private cache of that many entries.
	EvalCache int `json:"eval_cache,omitempty"`
	// TimeoutMS bounds the search wall-clock; on expiry the job completes
	// with its best-so-far result and StopReason "deadline".
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobState is the lifecycle of a job. Queued and running are transient;
// done, failed and cancelled are terminal. A job cancelled mid-search still
// ends "done" — with its best-so-far result and StopReason "cancelled" —
// because the search produced a usable answer; "cancelled" is reserved for
// jobs cancelled before they started.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// maxTerminalJobs is how many terminal jobs the daemon keeps for GET and
// stream replay. A terminal job holds its whole result (adversarial input,
// per-restart outcomes, a telemetry snapshot of the shared registry), so an
// unbounded history grows the heap with every job. Older terminal jobs are
// evicted in the order they finished; queued and running jobs never are.
const maxTerminalJobs = 32

// maxJobBody caps a POST /jobs request body. It admits an inline Geant
// checkpoint (about 1 MB, 1.34 MB as base64) many times over while keeping
// one request from exhausting the daemon's memory.
const maxJobBody = 32 << 20

// Event is one line of a job's NDJSON stream. Types: "queued", "running",
// "improved" (a new global best, streamed as it happens), "done", "failed",
// "cancelled".
type Event struct {
	Type  string `json:"type"`
	Job   string `json:"job"`
	Label string `json:"label,omitempty"`
	// Desc describes the built target ("geant/DOTE-Curr dim=462"), on
	// "running" events.
	Desc string `json:"desc,omitempty"`
	// Ratio/SysMLU/OptMLU/Iter accompany "improved" events.
	Ratio  float64 `json:"ratio,omitempty"`
	SysMLU float64 `json:"sys_mlu,omitempty"`
	OptMLU float64 `json:"opt_mlu,omitempty"`
	Iter   int     `json:"iter,omitempty"`
	// ElapsedMS is time since search start (improved) or total (done).
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Terminal summary fields ("done").
	Found      bool    `json:"found,omitempty"`
	BestRatio  float64 `json:"best_ratio,omitempty"`
	StopReason string  `json:"stop_reason,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
	Pass       *bool   `json:"pass,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// JobView is the JSON summary of a job (GET /jobs, GET /jobs/{id}). BestRatio
// tracks the live best-so-far while the job runs, so pollers see incremental
// progress without holding a stream open.
type JobView struct {
	ID         string          `json:"id"`
	Label      string          `json:"label,omitempty"`
	State      JobState        `json:"state"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	Found      bool            `json:"found,omitempty"`
	BestRatio  float64         `json:"best_ratio,omitempty"`
	StopReason string          `json:"stop_reason,omitempty"`
	Threshold  float64         `json:"threshold,omitempty"`
	Pass       *bool           `json:"pass,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// TargetBuilder materializes a job's model under analysis. The default
// builder loads the experiments checkpoint and applies the scenario; tests
// substitute cheap synthetic targets to keep the daemon's machinery under
// test without training a model.
type TargetBuilder func(spec *JobSpec) (*core.AttackTarget, string, error)

// Config configures a Server. The zero value works: GOMAXPROCS pool workers,
// two concurrent jobs, a fresh registry, checkpoint-backed target building.
type Config struct {
	// Workers sizes the work-stealing pool (<= 0: GOMAXPROCS).
	Workers int
	// JobConcurrency is how many jobs run at once (<= 0: 2). Restart-level
	// parallelism within each job comes from the shared pool.
	JobConcurrency int
	// Registry receives all daemon + search telemetry and backs /metrics.
	// Nil creates a private one.
	Registry *obs.Registry
	// CacheEntries sizes the shared per-checkpoint-digest eval caches
	// (0: 1<<16; negative: disable shared caches entirely).
	CacheEntries int
	// CacheQuantum is the demand quantization step for cache keys (0: default).
	CacheQuantum float64
	// BuildTarget overrides checkpoint loading (test seam).
	BuildTarget TargetBuilder
	// MetricsDump, when set, receives a registry snapshot after every job
	// completes — the serve-mode answer to the CLI's exit-time -metrics
	// dump, flushed while the daemon is still alive. MetricsFormat selects
	// "text" (default), "json" or "prom".
	MetricsDump   io.Writer
	MetricsFormat string
	// Logf, when set, receives daemon log lines.
	Logf func(format string, args ...any)
}

// Server is the analyzer daemon: a FIFO job queue drained by a fixed set of
// job runners, all sharding their searches' restarts over one work-stealing
// pool, with job lifecycle exposed over HTTP.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	pool    *Pool
	baseCtx context.Context
	stopAll context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Job
	jobs   map[string]*Job
	order  []*Job
	ended  []*Job // retained terminal jobs, in the order they finished
	nextID int
	closed bool
	caches map[string]*core.EvalCache

	wg             sync.WaitGroup
	dumpMu         sync.Mutex
	defaultBuilder bool
	runningN       atomic.Int64

	submitted, completed, failed, cancelled *obs.Counter
	queuedG, runningG                       *obs.Gauge
	jobElapsed                              *obs.Histogram
}

// Job is one queued or executed analysis. All fields behind mu; events are
// append-only so streams replay from the beginning.
type Job struct {
	ID   string
	Spec JobSpec

	s      *Server
	mu     sync.Mutex
	cond   *sync.Cond
	state  JobState
	events []Event
	result *core.SearchResult
	errMsg string
	cancel context.CancelFunc // set while running

	created, started, finished time.Time
	bestRatio                  float64
	bestFound                  bool
}

// New creates a Server and starts its job runners and worker pool. Call
// Shutdown to stop it.
func New(cfg Config) *Server {
	if cfg.JobConcurrency <= 0 {
		cfg.JobConcurrency = 2
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1 << 16
	}
	defaultBuilder := cfg.BuildTarget == nil
	if defaultBuilder {
		cfg.BuildTarget = BuildFromCheckpoint
	}
	if cfg.MetricsFormat == "" {
		cfg.MetricsFormat = "text"
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		pool:       NewPool(cfg.Workers, reg),
		baseCtx:    ctx,
		stopAll:    stop,
		jobs:       make(map[string]*Job),
		caches:     make(map[string]*core.EvalCache),
		submitted:  reg.Counter("serve.jobs.submitted"),
		completed:  reg.Counter("serve.jobs.completed"),
		failed:     reg.Counter("serve.jobs.failed"),
		cancelled:  reg.Counter("serve.jobs.cancelled"),
		queuedG:    reg.Gauge("serve.jobs.queued"),
		runningG:   reg.Gauge("serve.jobs.running"),
		jobElapsed: reg.Histogram("serve.job.elapsed.ms"),
	}
	s.defaultBuilder = defaultBuilder
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.JobConcurrency)
	for i := 0; i < cfg.JobConcurrency; i++ {
		go s.runner()
	}
	return s
}

// Registry returns the daemon's telemetry registry (what /metrics renders).
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit validates and enqueues a job.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if len(spec.Checkpoint) == 0 && spec.CheckpointPath == "" && s.defaultBuilder {
		return nil, errors.New("serve: job needs checkpoint or checkpoint_path")
	}
	if err := validBudget(spec.Budget); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("serve: server is shut down")
	}
	s.nextID++
	j := &Job{
		ID:      fmt.Sprintf("j%d", s.nextID),
		Spec:    spec,
		s:       s,
		state:   JobQueued,
		created: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	s.mu.Unlock()

	// The queued event lands before the job is discoverable, so it is
	// always the first line of every stream.
	j.emit(Event{Type: "queued", Job: j.ID, Label: spec.Label})

	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.queue = append(s.queue, j)
	s.queuedG.Set(float64(len(s.queue)))
	s.mu.Unlock()
	s.submitted.Inc()
	s.cond.Signal()
	s.logf("job %s queued (%s)", j.ID, spec.Label)
	return j, nil
}

func validBudget(b Budget) error {
	if b.Iters < 0 || b.Restarts < 0 || b.T < 0 || b.EvalEvery < 0 {
		return errors.New("serve: negative budget fields")
	}
	return nil
}

// Job returns a job by ID, nil when unknown or evicted from the history.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns the queued, running and retained terminal jobs in
// submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// Shutdown stops the server: no new submissions, still-queued jobs are
// cancelled, running searches are cancelled (they complete with best-so-far
// results and StopReason "cancelled"), and the worker pool drains. Blocks
// until runners exit or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		s.cond.Broadcast()
		s.stopAll()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.pool.Close()
	return nil
}

// runner is one job-execution loop; JobConcurrency of them drain the queue.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// nextJob blocks for the next queued job; nil means the server is shutting
// down (any jobs still queued at that point are cancelled, not run).
func (s *Server) nextJob() *Job {
	s.mu.Lock()
	for {
		if s.closed {
			dropped := s.queue
			s.queue = nil
			s.queuedG.Set(0)
			// Cancelling retains the job in the history, which takes s.mu.
			s.mu.Unlock()
			for _, j := range dropped {
				j.cancelQueued()
			}
			return nil
		}
		for len(s.queue) > 0 {
			j := s.queue[0]
			s.queue = s.queue[1:]
			s.queuedG.Set(float64(len(s.queue)))
			if j.State() == JobQueued {
				s.mu.Unlock()
				return j
			}
		}
		s.cond.Wait()
	}
}

// searchConfig translates a budget into a GradientConfig wired into the
// daemon: shared registry, work-stealing pool, memo cache policy.
func (s *Server) searchConfig(j *Job) core.GradientConfig {
	b := j.Spec.Budget
	cfg := core.DefaultGradientConfig()
	if b.Iters > 0 {
		cfg.Iters = b.Iters
	}
	if b.Restarts > 0 {
		cfg.Restarts = b.Restarts
	}
	if b.T > 0 {
		cfg.T = b.T
	}
	if b.AlphaD > 0 {
		cfg.AlphaD = b.AlphaD
	}
	if b.AlphaF > 0 {
		cfg.AlphaF = b.AlphaF
	}
	if b.AlphaL > 0 {
		cfg.AlphaL = b.AlphaL
	}
	if b.EvalEvery > 0 {
		cfg.EvalEvery = b.EvalEvery
	}
	if b.Patience > 0 {
		cfg.Patience = b.Patience
	} else if b.Patience < 0 {
		cfg.Patience = 0
	}
	if b.Seed != 0 {
		cfg.Seed = b.Seed
	}
	cfg.Obs = s.reg
	cfg.Executor = s.pool
	switch {
	case b.EvalCache > 0:
		cfg.EvalCache = core.NewEvalCache(b.EvalCache, s.cfg.CacheQuantum)
	case b.EvalCache == 0:
		cfg.EvalCache = s.sharedCache(&j.Spec)
	}
	return cfg
}

// sharedCache returns the memo cache for the job's checkpoint digest +
// scenario, creating it on first use. Caches are keyed on both because a
// cache entry is "true ratio at quantized input x" — valid only for one
// model, and only for one forward numerical path (sparse incremental
// evaluation is not bitwise identical to dense recomputation). Nil when the
// server config disables shared caches.
func (s *Server) sharedCache(spec *JobSpec) *core.EvalCache {
	if s.cfg.CacheEntries < 0 {
		return nil
	}
	d := specDigest(spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.caches[d]
	if !ok {
		c = core.NewEvalCache(s.cfg.CacheEntries, s.cfg.CacheQuantum)
		s.caches[d] = c
	}
	return c
}

// specDigest hashes the model identity (checkpoint bytes or path) and the
// scenario into the shared-cache key.
func specDigest(spec *JobSpec) string {
	h := sha256.New()
	if len(spec.Checkpoint) > 0 {
		h.Write(spec.Checkpoint)
	} else {
		fmt.Fprintf(h, "path:%s", spec.CheckpointPath)
	}
	fmt.Fprintf(h, "|opaque=%t fd=%g", spec.Scenario.Opaque, spec.Scenario.FDStep)
	return hex.EncodeToString(h.Sum(nil))
}

// runJob executes one job end to end: build target, run the search on the
// shared pool, stream improvements, record the terminal event, flush
// metrics.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	if ms := j.Spec.Budget.TimeoutMS; ms > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(ms)*time.Millisecond)
	}
	defer cancel()

	j.mu.Lock()
	if j.state != JobQueued { // cancelled between dequeue and start
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	s.runningG.Set(float64(s.runningN.Add(1)))
	defer func() { s.runningG.Set(float64(s.runningN.Add(-1))) }()

	target, desc, err := s.cfg.BuildTarget(&j.Spec)
	if err != nil {
		s.failJob(j, fmt.Errorf("building target: %w", err))
		return
	}
	j.emit(Event{Type: "running", Job: j.ID, Label: j.Spec.Label, Desc: desc})
	s.logf("job %s running: %s", j.ID, desc)

	cfg := s.searchConfig(j)
	cfg.OnImprove = func(ratio, sys, opt float64, iter int, elapsed time.Duration) {
		j.mu.Lock()
		j.bestRatio, j.bestFound = ratio, true
		j.mu.Unlock()
		j.emit(Event{
			Type: "improved", Job: j.ID, Label: j.Spec.Label,
			Ratio: ratio, SysMLU: sys, OptMLU: opt,
			Iter: iter, ElapsedMS: elapsed.Milliseconds(),
		})
	}
	res, err := core.GradientSearchContext(ctx, target, cfg)
	if err != nil {
		s.failJob(j, err)
		return
	}

	var elapsed time.Duration
	j.finish(JobRunning, JobDone, func(now time.Time) Event {
		j.result = res
		j.bestRatio, j.bestFound = res.BestRatio, res.Found
		elapsed = now.Sub(j.started)
		ev := Event{
			Type: "done", Job: j.ID, Label: j.Spec.Label,
			Found: res.Found, BestRatio: res.BestRatio,
			ElapsedMS: elapsed.Milliseconds(),
		}
		if res.StopReason != core.StopNone {
			ev.StopReason = res.StopReason.String()
		}
		if t := j.Spec.Threshold; t > 0 {
			pass := res.BestRatio <= t
			ev.Threshold, ev.Pass = t, &pass
		}
		return ev
	})
	s.completed.Inc()
	s.jobElapsed.Observe(float64(elapsed.Milliseconds()))
	s.logf("job %s done: ratio %.3f (%s)", j.ID, res.BestRatio, res.StopReason)
	s.dumpMetrics(j.ID)
}

func (s *Server) failJob(j *Job, err error) {
	j.finish(JobRunning, JobFailed, func(time.Time) Event {
		j.errMsg = err.Error()
		return Event{Type: "failed", Job: j.ID, Label: j.Spec.Label, Error: err.Error()}
	})
	s.failed.Inc()
	s.logf("job %s failed: %v", j.ID, err)
	s.dumpMetrics(j.ID)
}

// dumpMetrics flushes a registry snapshot to the configured sink after a job
// completes — serve-mode's replacement for the CLI's at-exit dump, which a
// long-lived daemon would never reach.
func (s *Server) dumpMetrics(jobID string) {
	if s.cfg.MetricsDump == nil {
		return
	}
	s.dumpMu.Lock()
	defer s.dumpMu.Unlock()
	fmt.Fprintf(s.cfg.MetricsDump, "# metrics after job %s\n", jobID)
	if err := s.reg.Snapshot().Write(s.cfg.MetricsDump, s.cfg.MetricsFormat); err != nil {
		s.logf("metrics dump failed: %v", err)
	}
}

// --- Job accessors ---

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the search result (nil until the job is done).
func (j *Job) Result() *core.SearchResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Cancel requests cancellation: a queued job is dropped ("cancelled"
// terminal state); a running job's search context is cancelled, so it
// completes normally with its best-so-far result and StopReason
// "cancelled". Returns false when the job is already terminal.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.mu.Unlock()
		j.cancelQueued()
		return true
	case JobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// cancelQueued moves a still-queued job to its terminal cancelled state.
func (j *Job) cancelQueued() {
	if j.finish(JobQueued, JobCancelled, func(time.Time) Event {
		return Event{Type: "cancelled", Job: j.ID, Label: j.Spec.Label}
	}) {
		j.s.cancelled.Inc()
	}
}

// finish is the only way a job becomes terminal. Under one hold of j.mu it
// moves the job from state from to the terminal state to, stamps its finish
// time, runs outcome (which records the job's result fields and returns the
// terminal event) and appends that event. A streamer that observes the
// terminal state has therefore always been handed the terminal event too.
// The job then enters the retained history (see maxTerminalJobs). Returns
// false, changing nothing, when the job is no longer in state from.
func (j *Job) finish(from, to JobState, outcome func(now time.Time) Event) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	now := time.Now()
	j.state = to
	j.finished = now
	j.events = append(j.events, outcome(now))
	j.mu.Unlock()
	j.cond.Broadcast()
	j.s.retain(j)
	return true
}

// retain adds a just-finished job to the history and evicts the oldest
// finished jobs beyond maxTerminalJobs from the job index and listing, so
// their IDs answer 404 from then on. Only finished jobs are ever evicted,
// and a job stays GET-able until maxTerminalJobs later jobs have finished.
func (s *Server) retain(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ended = append(s.ended, j)
	if len(s.ended) <= maxTerminalJobs {
		return
	}
	old := s.ended[0]
	s.ended = append(s.ended[:0], s.ended[1:]...)
	delete(s.jobs, old.ID)
	for i, o := range s.order {
		if o == old {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// emit appends an event and wakes streamers.
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.mu.Unlock()
	j.cond.Broadcast()
}

// await blocks until the job has events past index i, is terminal, or ctx
// is done; it returns the new events and whether the job is terminal.
func (j *Job) await(ctx context.Context, i int) ([]Event, bool) {
	stop := context.AfterFunc(ctx, func() { j.cond.Broadcast() })
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= i && !j.state.terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	return append([]Event(nil), j.events[i:]...), j.state.terminal()
}

// View summarizes the job; withResult attaches the full search-result JSON
// (adversarial input included) once the job is done.
func (j *Job) View(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Label:     j.Spec.Label,
		State:     j.state,
		CreatedAt: j.created,
		Found:     j.bestFound,
		BestRatio: j.bestRatio,
		Threshold: j.Spec.Threshold,
		Error:     j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.result != nil {
		if j.result.StopReason != core.StopNone {
			v.StopReason = j.result.StopReason.String()
		}
		if j.Spec.Threshold > 0 {
			pass := j.result.BestRatio <= j.Spec.Threshold
			v.Pass = &pass
		}
		if withResult {
			var buf bytes.Buffer
			if err := j.result.WriteJSON(&buf); err == nil {
				v.Result = buf.Bytes()
			}
		}
	}
	return v
}

// --- default target builder ---

// BuildFromCheckpoint is the default TargetBuilder: load the experiments
// checkpoint (inline bytes or path) without the train/test traffic a search
// never reads, apply the scenario, return the target.
func BuildFromCheckpoint(spec *JobSpec) (*core.AttackTarget, string, error) {
	var src io.Reader
	switch {
	case len(spec.Checkpoint) > 0:
		src = bytes.NewReader(spec.Checkpoint)
	case spec.CheckpointPath != "":
		f, err := os.Open(spec.CheckpointPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		src = f
	default:
		return nil, "", errors.New("serve: job needs checkpoint or checkpoint_path")
	}
	st, err := experiments.LoadCheckpoint(src)
	if err != nil {
		return nil, "", err
	}
	sc := spec.Scenario
	if sc.Opaque {
		fd := sc.FDStep
		if fd <= 0 {
			fd = 1e-4
		}
		st.Target.Pipeline = st.Model.OpaqueRoutingPipeline().Grayboxed(fd)
	}
	topo := st.Opts.Topology
	if topo == "" {
		topo = "abilene"
	}
	mode := "white-box"
	if sc.Opaque {
		mode = "gray-box"
	}
	desc := fmt.Sprintf("%s/%s %s dim=%d", topo, st.Model.Cfg.Variant, mode, st.Target.InputDim)
	return st.Target, desc, nil
}

// --- HTTP API ---

// Handler returns the daemon's HTTP API:
//
//	POST /jobs              submit a JobSpec, returns the JobView (202);
//	                        a body over 32 MiB is refused with 413
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         job summary; full result JSON once done
//	GET  /jobs/{id}/stream  NDJSON event stream (replays from the start,
//	                        follows until the job is terminal; the last
//	                        line is always the terminal event)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /metrics           obs registry, Prometheus text format
//	GET  /healthz           liveness
//
// Only the newest 32 terminal jobs are kept (maxTerminalJobs): the job
// routes answer 404 for an ID evicted from that history.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody)).Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("job spec larger than %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusAccepted, j.View(false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View(false))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, j.View(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"cancelled": j.Cancel()})
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; {
		evs, terminal := j.await(r.Context(), i)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		i += len(evs)
		if len(evs) > 0 && fl != nil {
			fl.Flush()
		}
		if terminal && len(evs) == 0 {
			return
		}
		if r.Context().Err() != nil {
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.Snapshot().WritePrometheus(w); err != nil {
		s.logf("/metrics write failed: %v", err)
	}
}
