// Command perfbench is the repository's end-to-end benchmark. It drives the
// analyzer through its public packages on three workloads, checks every
// answer it reports, and prints one JSON object as its last line of output:
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// traced run. See README.md in this directory.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload abilene-hist --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// How many times each run sets its workload up; setup_s is the median.
// Cheap set-ups repeat more, so their median is steady.
const (
	abileneSetups = 3
	allocSetups   = 9
	geantSetups   = 25
)

// runOpts are the settings of one run.
type runOpts struct {
	seed   uint64
	window time.Duration
	// stopBy is when a run stops starting searches or jobs, whatever the
	// window and minimum count say, so the process always exits in time.
	stopBy time.Time
	// checkBy is when every output check must have ended; a check still
	// running then is unfinished.
	checkBy time.Time
	trace   bool
	tr      *tracer // nil unless trace
}

// runBudget is how long after start a run may keep starting searches, and
// checkBudget how long after start its output checks may run.
const (
	runBudget   = 110 * time.Second
	checkBudget = 165 * time.Second
)

var workloads = map[string]func(runOpts) (*report, error){
	"abilene-hist":  runAbilene,
	"geant-gate-fd": runGeant,
	"alloc-milp":    runAlloc,
}

// gated lists the end-to-end metrics of the result line, the ones
// BENCHMARK.json bounds. ratio_p50, failed_frac, deadline_frac and
// peak_rss_mb are printed above it on every run but not bounded: see
// README.md.
var gated = []string{"setup_s", "search_s_p50", "searches_per_min", "live_heap_mb"}

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports it as 0.
var perLayer = map[string]string{
	"lp.solve_s_p50":          "s",
	"lp.solves":               "count",
	"lp.cold_solves":          "count",
	"lp.warm_hit_ratio":       "share",
	"lp.pivots_per_solve":     "count",
	"lp.cert_violations":      "count",
	"setup.lp_cold_solves":    "count",
	"setup.lp_pivots":         "count",
	"pipeline.grad_s":         "s",
	"core.grad_evals":         "count",
	"fd.row_s":                "s",
	"fd.rows":                 "count",
	"search.oracle_share":     "share",
	"search.restart_faults":   "count",
	"search.failed_frac":      "share",
	"search.ratio_p50":        "x",
	"search.deadline_frac":    "share",
	"evalcache.hit_ratio":     "share",
	"milp.solve_s_p50":        "s",
	"milp.solves":             "count",
	"milp.nodes_per_solve":    "count",
	"milp.node_resolves":      "count",
	"milp.cold_fallbacks":     "count",
	"milp.no_incumbent":       "count",
	"serve.queue_wait_s_p50":  "s",
	"serve.run_s_p50":         "s",
	"serve.checkpoint_load_s": "s",
	"serve.jobs_failed":       "count",
	"model.unexplained_share": "share",
	"trace.overhead_s":        "s",
	"process.peak_rss_mb":     "MB",
}

// keep holds values reachable up to this call, so a live-heap measurement
// taken before it counts them.
func keep(vs ...any) { runtime.KeepAlive(vs) }

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "abilene-hist, geant-gate-fd or alloc-milp")
	seed := flag.Uint64("seed", 1, "workload seed: every search or job seed derives from it")
	seconds := flag.Int("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <abilene-hist|geant-gate-fd|alloc-milp> --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	// One process, at most as many threads running Go code as there are CPUs.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	o := runOpts{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		stopBy:  time.Now().Add(runBudget),
		checkBy: time.Now().Add(checkBudget),
		trace:   *trace == 1,
	}
	if o.trace {
		o.tr = newTracer()
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	c := tally(rep.outcomes)
	for i, oc := range rep.outcomes {
		fmt.Fprintf(os.Stderr, "# search %d: %.3f s, ratio %.6g, found %t, failed %t, deadline %t, traced %t\n",
			i, oc.wall.Seconds(), oc.ratio, oc.found, oc.failed, oc.deadline, oc.traced)
	}
	all := endToEnd(rep, peakRSSMB())
	metrics := make(map[string]metric)
	if o.trace {
		rep.layers["search.failed_frac"] = all["failed_frac"].Value
		rep.layers["search.deadline_frac"] = all["deadline_frac"].Value
		rep.layers["search.ratio_p50"] = ratioP50(rep.outcomes)
		rep.layers["process.peak_rss_mb"] = all["peak_rss_mb"].Value
		for name, unit := range perLayer {
			metrics[name] = metric{rep.layers[name], unit}
		}
		o.tr.printSelfTimes(os.Stderr)
	} else {
		for _, name := range gated {
			metrics[name] = all[name]
		}
	}

	fmt.Printf("# %s seed %d: %d searches attempted in %.1f s, %d failed, %d stopped by deadline, %d restarts retired, %d output checks missed, %d output checks unfinished\n",
		*workload, *seed, c.attempted, rep.window.Seconds(), c.failed, c.deadline, c.restartFaults, c.certViolations, c.unfinished)
	shown := metrics
	if !o.trace {
		shown = all
	}
	names := make([]string, 0, len(shown))
	for k := range shown {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("#   %-24s %12.6g %-6s (%d attempted)\n", k, shown[k].Value, shown[k].Unit, c.attempted)
	}
	out, err := json.Marshal(result{
		Correct:   c.certViolations == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
