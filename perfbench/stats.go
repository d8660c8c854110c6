package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outcome is one search (in-process workloads) or one daemon job
// (geant-gate-fd), as the benchmark saw it.
type outcome struct {
	wall  time.Duration // submit or call to terminal result
	ratio float64       // best ratio found (valid when found)
	found bool
	// restartRatios holds the best ratio of each restart that found one.
	restartRatios []float64
	// failed: the search errored, stopped as faulted, the job ended in state
	// failed, or the answer missed an output check.
	failed bool
	// deadline: the search or job was stopped by its time limit.
	deadline bool
	// traced: the search ran with tracing on (trace mode alternates).
	traced bool
	// restartFaults counts restarts retired as faulted.
	restartFaults int
	// certViolations counts output checks the answer missed.
	certViolations int
	// checkUnfinished: an output check ran out of time before it decided.
	checkUnfinished bool
}

// report is what one workload run hands back for aggregation.
type report struct {
	setups   []time.Duration
	outcomes []outcome
	// window is the measured span: first search start to last result.
	window time.Duration
	// clients is the number of closed-loop clients (0 means one).
	clients int
	// liveHeapMB is HeapAlloc after a forced GC at the end of the run, taken
	// while the workload's state (model, server, caches) is still live.
	liveHeapMB float64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle value (mean of the two middle values for even
// lengths); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// counts tallies the failure accounting of a run: attempted searches, the
// failed ones (errors, faulted stops, failed jobs, missed output checks),
// deadline stops, retired restarts, missed certificates and output checks
// that ran out of time.
type counts struct {
	attempted, failed, deadline, restartFaults, certViolations, unfinished int
}

func tally(outs []outcome) counts {
	c := counts{attempted: len(outs)}
	for _, o := range outs {
		if o.failed {
			c.failed++
		}
		if o.deadline {
			c.deadline++
		}
		c.restartFaults += o.restartFaults
		c.certViolations += o.certViolations
		if o.checkUnfinished {
			c.unfinished++
		}
	}
	return c
}

func frac(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// endToEnd computes every end-to-end metric from the untraced outcomes of a
// run; failed_frac and deadline_frac count against all attempted searches.
func endToEnd(r *report, peakRSSMB float64) map[string]metric {
	var walls []float64
	var untraced []outcome
	for _, o := range r.outcomes {
		if !o.traced {
			walls = append(walls, o.wall.Seconds())
			untraced = append(untraced, o)
		}
	}
	// Closed-loop throughput: clients ÷ mean latency (Little's law), which
	// does not depend on where the window happens to cut the last search.
	sum := 0.0
	for _, w := range walls {
		sum += w
	}
	perMin := 0.0
	if sum > 0 {
		perMin = 60 * float64(max(1, r.clients)*len(walls)) / sum
	}
	c := tally(r.outcomes)
	return map[string]metric{
		"setup_s":          {durMedian(r.setups), "s"},
		"search_s_p50":     {median(walls), "s"},
		"searches_per_min": {perMin, "1/min"},
		"ratio_p50":        {ratioP50(untraced), "x"},
		"failed_frac":      {frac(c.failed, c.attempted), "share"},
		"deadline_frac":    {frac(c.deadline, c.attempted), "share"},
		"peak_rss_mb":      {peakRSSMB, "MB"},
		"live_heap_mb":     {r.liveHeapMB, "MB"},
	}
}

// ratioP50 is the median over restarts of the best ratio each restart
// verified. A search's best ratio is the maximum over its few restarts, and
// on Abilene those maxima cluster at two local optima, so their median
// jumps between the clusters from seed to seed while the restart median
// does not. A restart stopped before its first evaluation shows in
// deadline_frac, not as a ratio of zero.
func ratioP50(outs []outcome) float64 {
	var ratios []float64
	for _, o := range outs {
		ratios = append(ratios, o.restartRatios...)
	}
	return median(ratios)
}

// liveHeapMB forces a collection and reports the live heap. Callers keep
// the state they want counted reachable across the call.
func liveHeapMB() float64 {
	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them, so pooled scratch space does not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc; 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// parseProm reads the sample lines of a Prometheus text exposition into a
// map keyed by the series as written (labels included).
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
