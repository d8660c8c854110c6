package core_test

// Cancellation and fault-isolation tests for the gradient-search engine:
// the failure-semantics contract says a cancelled or partially faulted
// search still returns a well-formed best-so-far result, retires only the
// affected restarts, and leaks nothing. Run with -race.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// settleGoroutines polls until the goroutine count returns to the baseline
// or the deadline passes — worker goroutines need a moment to observe closed
// channels after the search returns.
func settleGoroutines(before int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before || time.Now().After(deadline) {
			return after
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelBatchedSearchMidFlight cancels a Restarts=8 search running as
// one lock-step group mid-flight and checks the acceptance contract: prompt return, StopReason
// cancelled, a valid best-so-far result, and zero leaked goroutines.
func TestCancelBatchedSearchMidFlight(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)

	cfg := core.DefaultGradientConfig()
	cfg.Iters = 10_000 // far more than will run before the cancel
	cfg.Restarts = 8
	cfg.EvalEvery = 1
	cfg.Patience = 0

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg.FaultInjector = func(restart, iter int, x []float64) error {
		if iter >= 5 {
			once.Do(cancel)
		}
		return nil
	}

	before := runtime.NumGoroutine()
	start := time.Now()
	res, err := core.GradientSearchContext(ctx, tg, cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled search returned error %v, want nil (result with StopReason)", err)
	}
	if res == nil {
		t.Fatal("cancelled search returned nil result")
	}
	if res.StopReason != core.StopCancelled {
		t.Fatalf("StopReason = %v, want cancelled", res.StopReason)
	}
	if !res.Found || res.BestX == nil {
		t.Fatalf("cancelled search lost its best-so-far result (found=%v)", res.Found)
	}
	if len(res.Restarts) != cfg.Restarts {
		t.Fatalf("got %d restart outcomes, want %d", len(res.Restarts), cfg.Restarts)
	}
	for _, o := range res.Restarts {
		if o.Stop != core.StopCancelled {
			t.Fatalf("restart %d Stop = %v, want cancelled", o.Restart, o.Stop)
		}
		if o.Iters > 8 {
			t.Fatalf("restart %d ran %d iterations after a cancel at iter 5 — not within one step granularity", o.Restart, o.Iters)
		}
	}
	// Generous sanity bound: 10k iterations would take far longer than the
	// handful that actually ran.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled search took %v", elapsed)
	}
	if after := settleGoroutines(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCancelScalarSearchMidFlight is the counterpart with one-restart
// groups on an Executor.
func TestCancelScalarSearchMidFlight(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)

	cfg := core.DefaultGradientConfig()
	cfg.Iters = 10_000
	cfg.Restarts = 4
	cfg.EvalEvery = 1
	cfg.Patience = 0
	cfg.Executor = goExecutor{}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg.FaultInjector = func(restart, iter int, x []float64) error {
		if iter >= 5 {
			once.Do(cancel)
		}
		return nil
	}

	before := runtime.NumGoroutine()
	res, err := core.GradientSearchContext(ctx, tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != core.StopCancelled {
		t.Fatalf("StopReason = %v, want cancelled", res.StopReason)
	}
	if !res.Found {
		t.Fatal("cancelled search lost its best-so-far result")
	}
	if after := settleGoroutines(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCancelDeadlineStopReason distinguishes an expired deadline from an
// explicit cancel in the StopReason taxonomy.
func TestCancelDeadlineStopReason(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)

	cfg := core.DefaultGradientConfig()
	cfg.Iters = 1_000_000
	cfg.Restarts = 2
	cfg.EvalEvery = 1
	cfg.Patience = 0

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, err := core.GradientSearchContext(ctx, tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != core.StopDeadline {
		t.Fatalf("StopReason = %v, want deadline", res.StopReason)
	}
}

// recordingInjector captures every restart's iterate at the top of each
// outer iteration (the FaultInjector hook doubles as the trajectory
// observation point) and optionally faults one restart at one iteration.
type recordingInjector struct {
	mu         sync.Mutex
	traj       map[int][][]float64
	faultAt    int // restart to fault; -1 for none
	faultIter  int
	faultCount int
}

func newRecordingInjector(faultRestart, faultIter int) *recordingInjector {
	return &recordingInjector{traj: make(map[int][][]float64), faultAt: faultRestart, faultIter: faultIter}
}

func (ri *recordingInjector) hook(restart, iter int, x []float64) error {
	ri.mu.Lock()
	ri.traj[restart] = append(ri.traj[restart], append([]float64(nil), x...))
	ri.mu.Unlock()
	if restart == ri.faultAt && iter == ri.faultIter {
		ri.faultCount++
		return fmt.Errorf("injected fault at restart %d iter %d", restart, iter)
	}
	return nil
}

// deterministicScore replaces the LP-backed ratio with the raw system MLU:
// the verified score of the bitwise tests must be a pure function of the
// iterate, and the warm-started LP pool is deterministic only for identical
// process-wide solve histories (which a retired restart changes by design).
// The search trajectory itself never touches the LP either way.
func deterministicScore(tg *core.AttackTarget) *core.AttackTarget {
	t2 := *tg
	t2.RatioOverride = func(x []float64) (float64, float64, float64, error) {
		sys := t2.Pipeline.EvalScalar(x)
		return sys, sys, 1, nil
	}
	return &t2
}

// runWithInjector runs one search with the given executor (nil: one group
// of all restarts) and injector and returns the result.
func runWithInjector(t *testing.T, tg *core.AttackTarget, exec core.Executor, ri *recordingInjector) *core.SearchResult {
	t.Helper()
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 24
	cfg.Restarts = 4
	cfg.Workers = 1 // deterministic eval order
	cfg.EvalEvery = 4
	cfg.Patience = 0
	cfg.Executor = exec
	cfg.FaultInjector = ri.hook
	res, err := core.GradientSearchContext(context.Background(), tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// groupings names the two restart groupings: "scalar" runs one-restart
// groups on an Executor, "batched" runs one lock-step group.
var groupings = []struct {
	name string
	exec core.Executor
}{{"scalar", goExecutor{}}, {"batched", nil}}

// TestFaultIsolationBitwiseTrajectories is the fault-injection matrix of the
// determinism contract: faulting restart 0, in its own group or in a shared
// one, must leave every surviving restart's trajectory bitwise identical to
// the same grouping's unfaulted run.
func TestFaultIsolationBitwiseTrajectories(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := deterministicScore(target(m))

	for _, g := range groupings {
		t.Run(g.name, func(t *testing.T) {
			clean := newRecordingInjector(-1, 0)
			resClean := runWithInjector(t, tg, g.exec, clean)

			faulted := newRecordingInjector(0, 7)
			resFault := runWithInjector(t, tg, g.exec, faulted)

			if faulted.faultCount != 1 {
				t.Fatalf("injected %d faults, want 1", faulted.faultCount)
			}
			if got := resFault.Restarts[0].Stop; got != core.StopFaulted {
				t.Fatalf("faulted restart Stop = %v, want faulted", got)
			}
			fe := resFault.Restarts[0].Fault
			if fe == nil || fe.Restart != 0 || fe.Iter != 7 || fe.Stage != "fault-injector" {
				t.Fatalf("fault attribution %+v, want restart 0 iter 7 stage fault-injector", fe)
			}
			if resFault.FaultCount != 1 || len(resFault.Faults) != 1 {
				t.Fatalf("FaultCount=%d len(Faults)=%d, want 1 and 1", resFault.FaultCount, len(resFault.Faults))
			}
			// The faulted restart stops recording at the fault iteration...
			if got := len(faulted.traj[0]); got != 8 {
				t.Fatalf("faulted restart recorded %d iterations, want 8", got)
			}
			// ...while every survivor's trajectory matches the clean run
			// bitwise, iteration by iteration.
			for r := 1; r < 4; r++ {
				want, got := clean.traj[r], faulted.traj[r]
				if len(want) != len(got) {
					t.Fatalf("restart %d: %d iterations faulted vs %d clean", r, len(got), len(want))
				}
				for it := range want {
					for i := range want[it] {
						if want[it][i] != got[it][i] {
							t.Fatalf("restart %d iter %d coord %d: %v != %v (trajectory diverged)",
								r, it, i, got[it][i], want[it][i])
						}
					}
				}
				if resFault.Restarts[r].Stop != core.StopConverged {
					t.Fatalf("surviving restart %d Stop = %v, want converged", r, resFault.Restarts[r].Stop)
				}
				if resFault.Restarts[r].BestRatio != resClean.Restarts[r].BestRatio {
					t.Fatalf("surviving restart %d BestRatio %v != clean %v",
						r, resFault.Restarts[r].BestRatio, resClean.Restarts[r].BestRatio)
				}
			}
			if resClean.StopReason != core.StopConverged || resFault.StopReason != core.StopConverged {
				t.Fatalf("StopReason clean=%v faulted=%v, want converged (survivors ran out the budget)",
					resClean.StopReason, resFault.StopReason)
			}
		})
	}
}

// TestFaultScalarBatchedAgree cross-checks one-restart groups against one
// lock-step group under the same injected fault: the per-row determinism
// contract must also hold when a restart is retired mid-search.
func TestFaultScalarBatchedAgree(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := deterministicScore(target(m))

	scalar := newRecordingInjector(0, 7)
	batched := newRecordingInjector(0, 7)
	resS := runWithInjector(t, tg, goExecutor{}, scalar)
	resB := runWithInjector(t, tg, nil, batched)

	for r := 0; r < 4; r++ {
		ws, wb := scalar.traj[r], batched.traj[r]
		if len(ws) != len(wb) {
			t.Fatalf("restart %d: scalar %d iterations, batched %d", r, len(ws), len(wb))
		}
		for it := range ws {
			for i := range ws[it] {
				if ws[it][i] != wb[it][i] {
					t.Fatalf("restart %d iter %d coord %d: scalar %v != batched %v",
						r, it, i, ws[it][i], wb[it][i])
				}
			}
		}
		if resS.Restarts[r].Stop != resB.Restarts[r].Stop {
			t.Fatalf("restart %d Stop: scalar %v != batched %v", r, resS.Restarts[r].Stop, resB.Restarts[r].Stop)
		}
	}
	if resS.BestRatio != resB.BestRatio {
		t.Fatalf("BestRatio: scalar %v != batched %v", resS.BestRatio, resB.BestRatio)
	}
}

// TestFaultAllRestartsRetired drives every restart into persistent eval
// failure: the search must degrade gracefully to StopFaulted with a
// well-formed (empty-handed) result instead of crashing or erroring — the
// scenario that used to panic cmd/tereport via an empty percentile sample.
func TestFaultAllRestartsRetired(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)
	tg.RatioOverride = func(x []float64) (float64, float64, float64, error) {
		return 0, 0, 0, errors.New("solver permanently down")
	}

	cfg := core.DefaultGradientConfig()
	cfg.Iters = 40
	cfg.Restarts = 3
	cfg.EvalEvery = 1
	cfg.Patience = 0

	res, err := core.GradientSearchContext(context.Background(), tg, cfg)
	if err != nil {
		t.Fatalf("all-faulted search returned error %v, want nil", err)
	}
	if res.StopReason != core.StopFaulted {
		t.Fatalf("StopReason = %v, want faulted", res.StopReason)
	}
	if res.Found {
		t.Fatal("Found = true with every evaluation failing")
	}
	if res.FaultCount == 0 {
		t.Fatal("no faults recorded")
	}
	for _, o := range res.Restarts {
		if o.Stop != core.StopFaulted {
			t.Fatalf("restart %d Stop = %v, want faulted", o.Restart, o.Stop)
		}
		if o.Fault == nil || o.Fault.Stage != "ratio-eval" {
			t.Fatalf("restart %d fault %+v, want stage ratio-eval", o.Restart, o.Fault)
		}
	}
}

// TestFaultComponentPanicContained checks the recover() boundary end to end
// with a real panic (not an injector error): a pipeline stage that panics for
// one restart's region of the input space must retire only that restart.
func TestFaultComponentPanicContained(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)

	var poisoned sync.Map // restart index → true once faulted
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 20
	cfg.Restarts = 4
	cfg.EvalEvery = 5
	cfg.Patience = 0
	cfg.Executor = goExecutor{}
	cfg.FaultInjector = func(restart, iter int, x []float64) error {
		if restart == 2 && iter == 3 {
			poisoned.Store(restart, true)
			panic("simulated ad shape mismatch") // raw panic, not an error return
		}
		return nil
	}

	res, err := core.GradientSearchContext(context.Background(), tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts[2].Stop != core.StopFaulted {
		t.Fatalf("restart 2 Stop = %v, want faulted", res.Restarts[2].Stop)
	}
	fe := res.Restarts[2].Fault
	if fe == nil {
		t.Fatal("no fault recorded on restart 2")
	}
	var ce *core.ComponentError
	if !errors.As(fe, &ce) {
		t.Fatalf("fault %T does not unwrap to *ComponentError", fe)
	}
	if !strings.Contains(ce.Error(), "simulated ad shape mismatch") {
		t.Fatalf("fault message %q lost the panic value", ce.Error())
	}
	for _, r := range []int{0, 1, 3} {
		if res.Restarts[r].Stop != core.StopConverged {
			t.Fatalf("restart %d Stop = %v, want converged", r, res.Restarts[r].Stop)
		}
	}
	if !res.Found {
		t.Fatal("surviving restarts found nothing")
	}
}

// TestFaultRatioEvalPanicContained: an oracle that panics (a RatioOverride
// here) is a component fault like any other. Each restart it hits retires
// with Stage "ratio-eval" and the search returns a well-formed result,
// whether the restarts run as one-restart groups on an Executor (the
// daemon's shape, where an escaped panic would kill the process) or as one
// lock-step group.
func TestFaultRatioEvalPanicContained(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)
	tg.RatioOverride = func(x []float64) (float64, float64, float64, error) {
		panic("oracle blew up")
	}
	for _, g := range groupings {
		t.Run(g.name, func(t *testing.T) {
			cfg := core.DefaultGradientConfig()
			cfg.Iters = 20
			cfg.Restarts = 3
			cfg.EvalEvery = 5
			cfg.Executor = g.exec
			res, err := core.GradientSearchContext(context.Background(), tg, cfg)
			if err != nil {
				t.Fatalf("search returned error %v, want a result", err)
			}
			if res.StopReason != core.StopFaulted || res.Found {
				t.Fatalf("StopReason = %v, Found = %v; want faulted with nothing found", res.StopReason, res.Found)
			}
			if res.FaultCount != cfg.Restarts {
				t.Fatalf("FaultCount = %d, want one per restart (%d)", res.FaultCount, cfg.Restarts)
			}
			for _, o := range res.Restarts {
				f := o.Fault
				if o.Stop != core.StopFaulted || f == nil || f.Stage != "ratio-eval" || f.Restart != o.Restart || f.Iter != 4 {
					t.Fatalf("restart %d: Stop %v fault %+v, want faulted at stage ratio-eval, iter 4", o.Restart, o.Stop, f)
				}
				if !strings.Contains(f.Error(), "oracle blew up") {
					t.Fatalf("fault message %q lost the panic value", f.Error())
				}
				if o.Iters != 5 {
					t.Fatalf("restart %d ran %d iterations, want 5 (retired at the first scoring)", o.Restart, o.Iters)
				}
			}
		})
	}
}

// TestFaultCountJSONRoundTrip checks the failure-semantics fields survive
// the result file format.
func TestFaultCountJSONRoundTrip(t *testing.T) {
	res := &core.SearchResult{
		Method:     "gradient-based (lagrangian)",
		Found:      true,
		BestRatio:  1.5,
		StopReason: core.StopCancelled,
		FaultCount: 3,
	}
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadResultJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.StopReason != core.StopCancelled || back.FaultCount != 3 {
		t.Fatalf("round-trip lost failure fields: %+v", back)
	}
	// Results that predate the taxonomy parse to StopNone.
	old, err := core.ReadResultJSON(strings.NewReader(`{"method":"x","found":false}`))
	if err != nil {
		t.Fatal(err)
	}
	if old.StopReason != core.StopNone {
		t.Fatalf("legacy result StopReason = %v, want none", old.StopReason)
	}
}
