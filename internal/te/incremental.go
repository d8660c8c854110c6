package te

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/paths"
)

// IncrementalEvaluator keeps the link loads, utilizations, and MLU of one
// (traffic matrix, splits) operating point resident and updates them in time
// proportional to what changed rather than to topology size.
//
// Rebase sets the operating point with a full recompute. ProbeDemand and
// ProbeSplit evaluate the MLU at a perturbed point WITHOUT mutating the
// evaluator: touched links are recomputed from scratch in slot order, so a
// probe is bitwise identical to a full pipeline evaluation at the probed
// point — the property that lets the sparse finite-difference fast path
// reproduce the dense search trajectory exactly. The max is maintained via a
// bounded recompute set; an O(E) rescan happens only when the argmax link
// itself decreases.
//
// The zero-demand convention matches the routing kernels: slots whose flow
// is exactly zero are skipped, so skipped and added-as-zero terms agree
// bitwise. MLU() initializes its max at link 0 (like the pipeline's max
// stage) rather than at 0 (like the standalone MLU helper); the two agree
// whenever any utilization is non-negative.
//
// Not safe for concurrent use; independent evaluators are independent.
type IncrementalEvaluator struct {
	ps      *paths.PathSet
	offsets []int
	nPairs  int
	nSlots  int

	slotPair  []int
	slotEdges [][]int
	caps      []float64

	// reverse incidence: the slots crossing each edge, ascending, so a
	// per-edge from-scratch recompute visits slots in the same order as the
	// forward kernel and accumulates bitwise-identical partial sums
	edgeSlotOff  []int
	edgeSlotFlat []int

	tm    []float64
	s     []float64
	loads []float64
	util  []float64
	maxU  float64
	arg   int

	// probe scratch, reset after every operation
	touched []int
	mark    []bool
	probeU  []float64

	// telemetry handles; nil when uninstrumented (obs no-op contract)
	cProbes    *obs.Counter
	cRefreshes *obs.Counter
	cRescans   *obs.Counter
	hProbeNS   *obs.Histogram
	hFullNS    *obs.Histogram
}

// NewIncrementalEvaluator builds an evaluator over ps's path structure. The
// operating point starts at all-zero demands and splits; call Rebase before
// probing.
func NewIncrementalEvaluator(ps *paths.PathSet) *IncrementalEvaluator {
	g := ps.Graph
	offsets, total := ps.Offsets()
	nE := g.NumEdges()
	ev := &IncrementalEvaluator{
		ps:        ps,
		offsets:   offsets,
		nPairs:    ps.NumPairs(),
		nSlots:    total,
		slotPair:  make([]int, total),
		slotEdges: make([][]int, total),
		caps:      make([]float64, nE),
		tm:        make([]float64, ps.NumPairs()),
		s:         make([]float64, total),
		loads:     make([]float64, nE),
		util:      make([]float64, nE),
		mark:      make([]bool, nE),
		probeU:    make([]float64, nE),
	}
	for i, pp := range ps.PairPaths {
		for k, path := range pp {
			ev.slotPair[offsets[i]+k] = i
			ev.slotEdges[offsets[i]+k] = path.Edges
		}
	}
	for e := 0; e < nE; e++ {
		ev.caps[e] = g.Edge(e).Capacity
	}
	// Count-then-fill the edge→slot reverse incidence; appending slots in
	// ascending order keeps each edge's slot list sorted.
	ev.edgeSlotOff = make([]int, nE+1)
	for _, edges := range ev.slotEdges {
		for _, e := range edges {
			ev.edgeSlotOff[e+1]++
		}
	}
	for e := 0; e < nE; e++ {
		ev.edgeSlotOff[e+1] += ev.edgeSlotOff[e]
	}
	ev.edgeSlotFlat = make([]int, ev.edgeSlotOff[nE])
	fill := make([]int, nE)
	copy(fill, ev.edgeSlotOff[:nE])
	for slot, edges := range ev.slotEdges {
		for _, e := range edges {
			ev.edgeSlotFlat[fill[e]] = slot
			fill[e]++
		}
	}
	return ev
}

// Instrument attaches (reg non-nil) or detaches (reg nil) telemetry:
// counters te.incr.probes / te.incr.refreshes / te.incr.rescans and latency
// histograms te.incr.probe.ns / te.incr.full.ns.
// Timing is only taken when instrumented, so the uninstrumented hot path
// pays one nil check.
func (ev *IncrementalEvaluator) Instrument(reg *obs.Registry) {
	if reg == nil {
		ev.cProbes, ev.cRefreshes, ev.cRescans = nil, nil, nil
		ev.hProbeNS, ev.hFullNS = nil, nil
		return
	}
	ev.cProbes = reg.Counter("te.incr.probes")
	ev.cRefreshes = reg.Counter("te.incr.refreshes")
	ev.cRescans = reg.Counter("te.incr.rescans")
	ev.hProbeNS = reg.Histogram("te.incr.probe.ns")
	ev.hFullNS = reg.Histogram("te.incr.full.ns")
}

// Rebase copies tm and s as the new operating point and fully recomputes
// loads, utilizations, and the max. The inputs are copied; the caller keeps
// ownership.
func (ev *IncrementalEvaluator) Rebase(tm TrafficMatrix, s Splits) {
	if len(tm) != ev.nPairs || len(s) != ev.nSlots {
		panic(fmt.Sprintf("te: Rebase with %d demands / %d splits, want %d / %d",
			len(tm), len(s), ev.nPairs, ev.nSlots))
	}
	copy(ev.tm, tm)
	copy(ev.s, s)
	ev.recompute()
}

func (ev *IncrementalEvaluator) recompute() {
	var t0 time.Time
	if ev.hFullNS != nil {
		t0 = time.Now()
	}
	ev.cRefreshes.Inc()
	for e := range ev.loads {
		ev.loads[e] = 0
	}
	for slot := 0; slot < ev.nSlots; slot++ {
		f := ev.tm[ev.slotPair[slot]] * ev.s[slot]
		if f == 0 {
			continue
		}
		for _, e := range ev.slotEdges[slot] {
			ev.loads[e] += f
		}
	}
	for e := range ev.loads {
		ev.util[e] = ev.loads[e] / ev.caps[e]
	}
	ev.maxU, ev.arg = ev.util[0], 0
	for e := 1; e < len(ev.util); e++ {
		if ev.util[e] > ev.maxU {
			ev.maxU, ev.arg = ev.util[e], e
		}
	}
	if ev.hFullNS != nil {
		ev.hFullNS.Observe(float64(time.Since(t0)))
	}
}

// MLU returns the resident maximum link utilization and its edge ID.
func (ev *IncrementalEvaluator) MLU() (float64, int) { return ev.maxU, ev.arg }

func (ev *IncrementalEvaluator) slotRange(pair int) (lo, hi int) {
	lo = ev.offsets[pair]
	if pair+1 < len(ev.offsets) {
		return lo, ev.offsets[pair+1]
	}
	return lo, ev.nSlots
}

// ProbeDemand returns the MLU at the point where demand pair is perturbed by
// delta, without mutating the evaluator. Touched links are recomputed from
// scratch, so the result is bitwise identical to a full evaluation at the
// perturbed point.
func (ev *IncrementalEvaluator) ProbeDemand(pair int, delta float64) float64 {
	var t0 time.Time
	if ev.hProbeNS != nil {
		t0 = time.Now()
	}
	ev.cProbes.Inc()
	dNew := ev.tm[pair] + delta
	lo, hi := ev.slotRange(pair)
	for slot := lo; slot < hi; slot++ {
		if ev.s[slot] == 0 {
			continue // flow is exactly zero before and after the perturbation
		}
		for _, e := range ev.slotEdges[slot] {
			if !ev.mark[e] {
				ev.mark[e] = true
				ev.touched = append(ev.touched, e)
			}
		}
	}
	for _, e := range ev.touched {
		sum := 0.0
		for _, slot := range ev.edgeSlotFlat[ev.edgeSlotOff[e]:ev.edgeSlotOff[e+1]] {
			p := ev.slotPair[slot]
			d := ev.tm[p]
			if p == pair {
				d = dNew
			}
			f := d * ev.s[slot]
			if f == 0 {
				continue
			}
			sum += f
		}
		ev.probeU[e] = sum / ev.caps[e]
	}
	mlu := ev.probeMax()
	for _, e := range ev.touched {
		ev.mark[e] = false
	}
	ev.touched = ev.touched[:0]
	if ev.hProbeNS != nil {
		ev.hProbeNS.Observe(float64(time.Since(t0)))
	}
	return mlu
}

// ProbeSplit returns the MLU at the point where split slot is perturbed by
// delta, without mutating the evaluator. Same exactness contract as
// ProbeDemand.
func (ev *IncrementalEvaluator) ProbeSplit(slot int, delta float64) float64 {
	var t0 time.Time
	if ev.hProbeNS != nil {
		t0 = time.Now()
	}
	ev.cProbes.Inc()
	sNew := ev.s[slot] + delta
	if d := ev.tm[ev.slotPair[slot]]; d != 0 {
		for _, e := range ev.slotEdges[slot] {
			if !ev.mark[e] {
				ev.mark[e] = true
				ev.touched = append(ev.touched, e)
			}
		}
		for _, e := range ev.touched {
			sum := 0.0
			for _, s2 := range ev.edgeSlotFlat[ev.edgeSlotOff[e]:ev.edgeSlotOff[e+1]] {
				sv := ev.s[s2]
				if s2 == slot {
					sv = sNew
				}
				f := ev.tm[ev.slotPair[s2]] * sv
				if f == 0 {
					continue
				}
				sum += f
			}
			ev.probeU[e] = sum / ev.caps[e]
		}
	}
	mlu := ev.probeMax()
	for _, e := range ev.touched {
		ev.mark[e] = false
	}
	ev.touched = ev.touched[:0]
	if ev.hProbeNS != nil {
		ev.hProbeNS.Observe(float64(time.Since(t0)))
	}
	return mlu
}

// certifySlack is the rounding-safety margin of the probe-support
// certificate. A from-scratch touched-link recompute differs from the
// resident sum by at most a few hundred ulps (the sums have identical terms
// in identical order except the perturbed one), so any link whose
// real-arithmetic perturbed utilization clears the resident max by more than
// this margin provably cannot move the float-computed max either. 1e-9
// relative is ~6 orders above the worst-case accumulation and ~5 below the
// h·flow/capacity scale at which ties actually matter, so the certificate
// stays a strict superset of the true support without inflating it.
const certifySlack = 1e-9

// SplitProbeCanMoveMax reports whether ProbeSplit(slot, ±h) could return
// anything other than the resident MLU. A split probe changes only the flow
// on the slot's own links, each by exactly h·demand, so the probed
// utilization of link l is util[l] ± h·|demand|/caps[l]. If the slot's pair
// carries zero demand the probe touches nothing; otherwise the max can move
// only if some crossed link's raised utilization reaches the resident max
// (the lowered side can never beat an untouched argmax, and a touched argmax
// trivially satisfies the inequality since util[arg] = maxU). A false return
// certifies both central-difference probes return the resident max bitwise —
// the derivative is exactly zero and need not be measured.
func (ev *IncrementalEvaluator) SplitProbeCanMoveMax(slot int, h float64) bool {
	d := ev.tm[ev.slotPair[slot]]
	if d == 0 {
		return false
	}
	if d < 0 {
		d = -d
	}
	if h < 0 {
		h = -h
	}
	floor := ev.maxU - certifySlack*(1+ev.maxU)
	for _, e := range ev.slotEdges[slot] {
		if ev.util[e]+h*d/ev.caps[e] >= floor {
			return true
		}
	}
	return false
}

// DemandProbeCanMoveMax reports whether ProbeDemand(pair, ±h) could return
// anything other than the resident MLU. A demand probe scales every nonzero
// slot of the pair, so link l's flow moves by h·Σ s[slot] over the pair's
// slots crossing l — the per-link share is accumulated into the probe
// scratch and tested against the same resident-max floor as the split
// certificate. Same exactness contract: false certifies a bitwise-zero
// central difference.
func (ev *IncrementalEvaluator) DemandProbeCanMoveMax(pair int, h float64) bool {
	if h < 0 {
		h = -h
	}
	lo, hi := ev.slotRange(pair)
	for slot := lo; slot < hi; slot++ {
		sv := ev.s[slot]
		if sv == 0 {
			continue
		}
		if sv < 0 {
			sv = -sv
		}
		for _, e := range ev.slotEdges[slot] {
			if !ev.mark[e] {
				ev.mark[e] = true
				ev.touched = append(ev.touched, e)
				ev.probeU[e] = 0
			}
			ev.probeU[e] += sv
		}
	}
	floor := ev.maxU - certifySlack*(1+ev.maxU)
	can := false
	for _, e := range ev.touched {
		if ev.util[e]+h*ev.probeU[e]/ev.caps[e] >= floor {
			can = true
		}
		ev.mark[e] = false
	}
	ev.touched = ev.touched[:0]
	return can
}

// probeMax computes the max utilization at the probed point: resident values
// on untouched links, probeU on touched ones. An untouched argmax still
// dominates every untouched link, so only the touched set can beat it; a
// touched argmax that did not decrease likewise; only a decreased argmax
// forces the one O(E) rescan.
func (ev *IncrementalEvaluator) probeMax() float64 {
	if len(ev.touched) == 0 {
		return ev.maxU
	}
	if !ev.mark[ev.arg] {
		best := ev.maxU
		for _, e := range ev.touched {
			if ev.probeU[e] > best {
				best = ev.probeU[e]
			}
		}
		return best
	}
	if ev.probeU[ev.arg] >= ev.maxU {
		best := ev.probeU[ev.arg]
		for _, e := range ev.touched {
			if ev.probeU[e] > best {
				best = ev.probeU[e]
			}
		}
		return best
	}
	ev.cRescans.Inc()
	best := ev.util[0]
	if ev.mark[0] {
		best = ev.probeU[0]
	}
	for e := 1; e < len(ev.util); e++ {
		u := ev.util[e]
		if ev.mark[e] {
			u = ev.probeU[e]
		}
		if u > best {
			best = u
		}
	}
	return best
}
