package core_test

// Telemetry integration tests: an instrumented search must populate the
// registry across every layer it touches (pipeline stages, LP solver,
// search counters), attach the snapshot to the result, and round-trip it
// through the JSON result schema losslessly. An
// uninstrumented search must leave no trace in the output — older result
// files and new uninstrumented ones stay byte-compatible.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func searchCfg(exec core.Executor, reg *obs.Registry) core.GradientConfig {
	cfg := core.DefaultGradientConfig()
	cfg.Iters = 20
	cfg.Restarts = 2
	cfg.EvalEvery = 5
	cfg.Patience = 0
	cfg.Seed = 7
	cfg.Executor = exec
	cfg.Obs = reg
	return cfg
}

func TestSearchTelemetryPopulated(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)
	for _, g := range groupings {
		t.Run(g.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			res, err := core.GradientSearch(tg, searchCfg(g.exec, reg))
			if err != nil {
				t.Fatal(err)
			}
			if res.Telemetry == nil {
				t.Fatal("instrumented search returned nil Telemetry")
			}
			snap := res.Telemetry

			// The step counter must account for every completed outer
			// iteration of every restart, under one name whatever the
			// restart count: no metric is minted per restart.
			var iters int64
			for _, o := range res.Restarts {
				iters += int64(o.Iters)
			}
			if steps := snap.Counters["search.steps"]; steps != iters || steps == 0 {
				t.Errorf("search.steps = %d, outcomes report %d iterations", steps, iters)
			}
			for _, name := range []string{"search.rejects", "search.faults"} {
				if _, ok := snap.Counters[name]; !ok {
					t.Errorf("counter %s missing", name)
				}
			}
			for name := range snap.Counters {
				if strings.HasPrefix(name, "search.restart.") {
					t.Errorf("per-restart counter %s in the registry", name)
				}
			}

			// LP counters: the ratio evaluations solve optimal-MLU LPs.
			if snap.Counters["lp.solves"] == 0 {
				t.Error("lp.solves counter is zero despite LP-scored evaluations")
			}
			if h, ok := snap.Histograms["lp.solve.ms"]; !ok || h.Count == 0 {
				t.Error("lp.solve.ms histogram missing or empty")
			}
			if h, ok := snap.Histograms["lp.solve.pivots"]; !ok || h.Count == 0 {
				t.Error("lp.solve.pivots histogram missing or empty")
			}

			// Pipeline stage timings: at least one forward and one vjp
			// histogram must have observations.
			fwd, vjp := false, false
			for name, h := range snap.Histograms {
				if !strings.HasPrefix(name, "pipeline.") || h.Count == 0 {
					continue
				}
				if strings.HasSuffix(name, ".forward.ms") {
					fwd = true
				}
				if strings.HasSuffix(name, ".vjp.ms") {
					vjp = true
				}
			}
			if !fwd || !vjp {
				t.Errorf("pipeline stage histograms incomplete: forward=%v vjp=%v", fwd, vjp)
			}

			if h, ok := snap.Histograms["search.elapsed.ms"]; !ok || h.Count != 1 {
				t.Error("search.elapsed.ms histogram missing or not exactly one observation")
			}
		})
	}
}

// TestTelemetryJSONRoundTrip: a populated Telemetry block must decode to
// exactly the struct that was encoded (encoding/json's shortest-round-trip
// float formatting makes this lossless).
func TestTelemetryJSONRoundTrip(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)
	reg := obs.NewRegistry()
	res, err := core.GradientSearch(tg, searchCfg(goExecutor{}, reg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("no telemetry to round-trip")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Telemetry == nil {
		t.Fatal("telemetry block lost in round-trip")
	}
	if !reflect.DeepEqual(res.Telemetry, back.Telemetry) {
		t.Fatalf("telemetry round-trip mismatch:\nwrote %+v\nread  %+v", res.Telemetry, back.Telemetry)
	}
}

// TestNoTelemetryNoBlock: an uninstrumented search emits no telemetry key at
// all, and result files written before the field existed decode with a nil
// Telemetry — the schema change is invisible to old readers and writers.
func TestNoTelemetryNoBlock(t *testing.T) {
	m := trainedTriangleModel(t)
	tg := target(m)
	cfg := searchCfg(goExecutor{}, nil)
	res, err := core.GradientSearch(tg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("uninstrumented search produced a Telemetry block")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "telemetry") {
		t.Fatalf("uninstrumented result JSON mentions telemetry:\n%s", buf.String())
	}
	// A pre-telemetry result file (no such key) must still decode.
	legacy := `{"method":"gradient-based (lagrangian)","found":true,"best_ratio":1.5,
"best_sys_mlu":0.9,"best_opt_mlu":0.6,"evals":10,"grad_evals":10,"lp_evals":10,
"elapsed_ms":100,"time_to_best_ms":50,"stop_reason":"converged"}`
	back, err := core.ReadResultJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if back.Telemetry != nil {
		t.Fatal("legacy result decoded with non-nil Telemetry")
	}
	if back.BestRatio != 1.5 {
		t.Fatalf("legacy decode BestRatio = %v", back.BestRatio)
	}
}
