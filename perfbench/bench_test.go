package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/paths"
	"repro/internal/te"
	"repro/internal/topology"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestEndToEndAggregation(t *testing.T) {
	r := &report{
		setups: []time.Duration{3 * time.Second, time.Second, 2 * time.Second},
		outcomes: []outcome{
			{wall: 1 * time.Second, found: true, restartRatios: []float64{2, 6}},
			{wall: 3 * time.Second, found: true, restartRatios: []float64{4}},
			// Traced searches never enter the end-to-end metrics.
			{wall: 100 * time.Second, traced: true, restartRatios: []float64{100, 100, 100}},
			// A search stopped before it found anything adds its latency,
			// not a ratio.
			{wall: 2 * time.Second, deadline: true},
		},
		clients:    2,
		liveHeapMB: 7,
	}
	m := endToEnd(r, 42)
	want := map[string]float64{
		"setup_s":      2,
		"search_s_p50": 2,
		// 2 clients × 3 searches in 6 client-seconds.
		"searches_per_min": 60,
		"ratio_p50":        4,
		"failed_frac":      0,
		"deadline_frac":    0.25,
		"peak_rss_mb":      42,
		"live_heap_mb":     7,
	}
	if len(m) != len(want) {
		t.Fatalf("got %d metrics, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if math.Abs(m[k].Value-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k].Value, v)
		}
		if m[k].Unit == "" {
			t.Errorf("%s has no unit", k)
		}
	}
}

func TestFailureCounting(t *testing.T) {
	outs := []outcome{
		{found: true},
		{failed: true},                // errored or faulted
		{found: true, deadline: true}, // stopped by its limit, answer kept
		{found: true, failed: true, certViolations: 2}, // missed two output checks
		{found: true, restartFaults: 3},                // retired restarts do not fail the search
		{found: true, checkUnfinished: true},           // a check out of time does not fail it either
	}
	c := tally(outs)
	want := counts{attempted: 6, failed: 2, deadline: 1, restartFaults: 3, certViolations: 2, unfinished: 1}
	if c != want {
		t.Fatalf("tally = %+v, want %+v", c, want)
	}
	if f := frac(c.failed, c.attempted); f != 2.0/6 {
		t.Errorf("failed_frac = %v, want 1/3", f)
	}
	var missed, slow outcome
	record(&missed, verdict{miss: 1, why: "wrong"}, "test", 0)
	record(&slow, verdict{unfinished: true, why: "slow"}, "test", 1)
	if !missed.failed || missed.certViolations != 1 || missed.checkUnfinished {
		t.Errorf("missed check recorded as %+v", missed)
	}
	if slow.failed || slow.certViolations != 0 || !slow.checkUnfinished {
		t.Errorf("unfinished check recorded as %+v", slow)
	}
	if f := frac(1, 0); f != 0 {
		t.Errorf("frac with nothing attempted = %v, want 0", f)
	}
}

func TestCertifyFlagsUnattainedClaim(t *testing.T) {
	ps := paths.NewPathSet(topology.Triangle(), 2)
	tm := make(te.TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = float64(1 + i%3)
	}
	opt, splits, err := te.OptimalMLU(ps, tm)
	if err != nil {
		t.Fatal(err)
	}
	if !certify(ps, tm, opt, splits) {
		t.Fatalf("the LP's own optimum %v with its splits did not certify", opt)
	}
	// A claim below what the splits actually route must be flagged.
	if certify(ps, tm, opt*(1-1e-4), splits) {
		t.Error("claim 1e-4 below the routed MLU certified")
	}
	// Shortest-path routing does not attain the optimum on a loaded
	// triangle, so claiming the optimum with those splits must be flagged.
	sp := te.ShortestPathSplits(ps)
	if m, _ := te.MLU(ps, tm, sp); m <= opt*(1+1e-3) {
		t.Fatalf("test needs a non-optimal routing: shortest paths route at %v, optimum %v", m, opt)
	}
	if certify(ps, tm, opt, sp) {
		t.Error("optimum claimed with shortest-path splits certified")
	}
}

func TestCheckOptimum(t *testing.T) {
	ps := paths.NewPathSet(topology.Triangle(), 2)
	tm := make(te.TrafficMatrix, ps.NumPairs())
	for i := range tm {
		tm[i] = float64(1 + i%3)
	}
	opt, _, err := te.OptimalMLU(ps, tm)
	if err != nil {
		t.Fatal(err)
	}
	var v verdict
	checkOptimum(context.Background(), &v, ps, tm, opt)
	if v.miss != 0 || v.unfinished {
		t.Errorf("agreeing optimum: %+v", v)
	}
	v = verdict{}
	checkOptimum(context.Background(), &v, ps, tm, opt*(1+1e-3))
	if v.miss != 1 || v.unfinished {
		t.Errorf("disagreeing optimum: %+v, want one miss", v)
	}
	// A re-solve that runs out of time is unfinished, not wrong.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v = verdict{}
	checkOptimum(ctx, &v, ps, tm, opt*(1+1e-3))
	if v.miss != 0 || !v.unfinished {
		t.Errorf("stopped re-solve: %+v, want unfinished and no miss", v)
	}
}

func TestSelfTime(t *testing.T) {
	s := func(id, parent int, name string, a, b int) span {
		return span{ID: id, Parent: parent, Name: name, Start: time.Duration(a), End: time.Duration(b)}
	}
	spans := []span{
		s(1, 0, "search", 0, 100),
		// Overlapping children (parallel restarts) are merged: [10,50].
		s(2, 1, "oracle", 10, 40),
		s(3, 1, "oracle", 30, 50),
		// A child reaching past its parent is clipped to it.
		s(4, 1, "oracle", 90, 120),
		s(5, 0, "setup", 200, 260),
	}
	got := selfTime(spans)
	want := map[string]time.Duration{"search": 50, "oracle": 80, "setup": 60}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm("# TYPE lp_solves counter\nlp_solves 12\n# TYPE lp_solve_ms summary\n" +
		"lp_solve_ms{quantile=\"0.5\"} 3.5\nlp_solve_ms_sum 40\nbogus line x\n")
	if m["lp_solves"] != 12 || m[`lp_solve_ms{quantile="0.5"}`] != 3.5 || m["lp_solve_ms_sum"] != 40 {
		t.Errorf("parseProm = %v", m)
	}
	if _, ok := m["bogus line"]; ok {
		t.Error("parsed a non-numeric sample")
	}
}

// TestBenchmarkJSONMatches pins the result line to the contract in
// BENCHMARK.json: the bounded end-to-end metrics and the per-layer metrics
// a traced run prints, with their units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	all := endToEnd(&report{}, 0)
	if len(b.EndToEnd) != len(gated) {
		t.Errorf("BENCHMARK.json bounds %d end-to-end metrics, the result line carries %d", len(b.EndToEnd), len(gated))
	}
	for _, e := range b.EndToEnd {
		m, ok := all[e.Name]
		if !ok || !slices.Contains(gated, e.Name) {
			t.Errorf("end-to-end metric %s is not on the result line", e.Name)
		} else if m.Unit != e.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", e.Name, m.Unit, e.Unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(b.PerLayer), len(perLayer))
	}
	for _, e := range b.PerLayer {
		if u, ok := perLayer[e.Name]; !ok || u != e.Unit {
			t.Errorf("per-layer metric %s (%s): traced run prints unit %q", e.Name, e.Unit, u)
		}
	}
}
