package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ad"
	"repro/internal/paths"
	"repro/internal/te"
)

// AttackTarget packages everything the searchers need about a system under
// analysis: the end-to-end pipeline H(x) (whose scalar output is the
// system's MLU), where the routed demand lives inside the input vector, the
// path set (to compute the optimal baseline), and the input box constraint
// (§5 bounds demands by the average link capacity).
type AttackTarget struct {
	// Pipeline maps the full input x to [MLU_system(x)].
	Pipeline *Pipeline
	// InputDim is the dimension of x.
	InputDim int
	// DemandStart/DemandLen locate the routed demand matrix within x. Any
	// remaining coordinates (e.g. DOTE-Hist's history window) are free
	// search variables too.
	DemandStart, DemandLen int
	// PS is the routing substrate used for the optimal baseline and the
	// feasibility constraint of Eq. 3.
	PS *paths.PathSet
	// MaxDemand is the per-coordinate upper bound on x.
	MaxDemand float64
	// RatioOverride, when non-nil, replaces the default MLU-over-optimal
	// scoring — used by alternative objectives such as total flow (§4,
	// "Other TE Objectives").
	RatioOverride func(x []float64) (ratio, sys, opt float64, err error)
}

// attackRouting holds the routing incidence caches and the utilization
// kernels for the constraint term of one path set. It is memoized on the
// path set rather than stored on AttackTarget so that targets stay plain
// copyable values (searchers clone them to probe perturbed settings) while
// concurrent restart goroutines share one copy.
type attackRouting struct {
	slotPair  []int
	slotEdges [][]int
	caps      []float64
	offsets   []int
	lens      []int
	mluFwd    func(in [][]float64, out []float64)
	mluBwd    func(in [][]float64, out, gout []float64, gin [][]float64)

	// per-batch-size segment layouts for the batched constraint term; the
	// slices are retained by tapes until Reset, so they are cached here and
	// never mutated
	batchMu  sync.Mutex
	softSegs map[int]*attackSegs // per-pair softmax segments × rows
	maxSegs  map[int]*attackSegs // one [E]-long segment per row
}

// attackSegs is a cached (offsets, lens) pair for the tape's segment ops.
type attackSegs struct {
	offsets, lens []int
}

// batchSoftmaxSegs returns the per-pair softmax layout replicated across
// rows of a flattened [rows·nSlots] logits vector.
func (r *attackRouting) batchSoftmaxSegs(rows int) *attackSegs {
	r.batchMu.Lock()
	defer r.batchMu.Unlock()
	if s, ok := r.softSegs[rows]; ok {
		return s
	}
	if r.softSegs == nil {
		r.softSegs = make(map[int]*attackSegs)
	}
	nSeg, nSlots := len(r.offsets), len(r.slotPair)
	s := &attackSegs{offsets: make([]int, rows*nSeg), lens: make([]int, rows*nSeg)}
	for row := 0; row < rows; row++ {
		for i := 0; i < nSeg; i++ {
			s.offsets[row*nSeg+i] = row*nSlots + r.offsets[i]
			s.lens[row*nSeg+i] = r.lens[i]
		}
	}
	r.softSegs[rows] = s
	return s
}

// batchMaxSegs returns one length-E segment per row of a flattened
// [rows·E] utilization vector, for the per-row max reduction.
func (r *attackRouting) batchMaxSegs(rows int) *attackSegs {
	r.batchMu.Lock()
	defer r.batchMu.Unlock()
	if s, ok := r.maxSegs[rows]; ok {
		return s
	}
	if r.maxSegs == nil {
		r.maxSegs = make(map[int]*attackSegs)
	}
	nE := len(r.caps)
	s := &attackSegs{offsets: make([]int, rows), lens: make([]int, rows)}
	for row := 0; row < rows; row++ {
		s.offsets[row] = row * nE
		s.lens[row] = nE
	}
	r.maxSegs[rows] = s
	return s
}

// attackRoutingKey is the paths.PathSet.Memo key of a path set's routing
// kernels.
type attackRoutingKey struct{}

// Validate checks internal consistency. The path set may be nil for
// non-TE systems ("Beyond learning-enabled systems", §6) — then a
// RatioOverride must supply the scoring and the search runs without the
// TE feasibility term (as if Mode were DirectAscent).
func (a *AttackTarget) Validate() error {
	if a.Pipeline == nil {
		return fmt.Errorf("core: AttackTarget missing pipeline")
	}
	if a.PS == nil {
		if a.RatioOverride == nil {
			return fmt.Errorf("core: AttackTarget without a path set needs a RatioOverride")
		}
	} else if a.DemandLen != a.PS.NumPairs() {
		return fmt.Errorf("core: demand length %d, path set has %d pairs", a.DemandLen, a.PS.NumPairs())
	}
	if a.DemandStart < 0 || a.DemandStart+a.DemandLen > a.InputDim {
		return fmt.Errorf("core: demand slice out of input range")
	}
	if a.MaxDemand <= 0 {
		return fmt.Errorf("core: MaxDemand must be positive")
	}
	return nil
}

// Demand extracts the routed demand from a search point.
func (a *AttackTarget) Demand(x []float64) te.TrafficMatrix {
	d := make(te.TrafficMatrix, a.DemandLen)
	copy(d, x[a.DemandStart:a.DemandStart+a.DemandLen])
	return d
}

// Ratio evaluates the true performance ratio (Eq. 2) at x: the pipeline's
// MLU over the LP-optimal MLU of the routed demand. This is the ground
// truth all searchers are scored on.
func (a *AttackTarget) Ratio(x []float64) (ratio, sys, opt float64, err error) {
	return a.RatioCtx(context.Background(), x)
}

// RatioCtx is Ratio under a caller-controlled context: the optimal-MLU LP
// solve inherits ctx's deadline (mapped onto lp.Problem.Deadline) and the
// call returns ctx.Err() promptly after cancellation. With a context that
// can never fire the code path is identical to Ratio.
func (a *AttackTarget) RatioCtx(ctx context.Context, x []float64) (ratio, sys, opt float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	if a.RatioOverride != nil {
		return a.RatioOverride(x)
	}
	sys = a.Pipeline.EvalScalar(x)
	d := a.Demand(x)
	if d.Total() == 0 {
		return 1, sys, 0, nil
	}
	opt, _, err = te.OptimalMLUCtx(ctx, a.PS, d)
	if err != nil {
		return 0, 0, 0, err
	}
	if opt <= 0 {
		return 1, sys, opt, nil
	}
	return sys / opt, sys, opt, nil
}

// routingFor returns the incidence and utilization kernels for ps, memoized
// on the path set (so they are collected with it) and built on first use.
// The forward/backward closures are built once here, not per
// constraintMLUBatch call, so the per-iteration hot path records them onto
// the tape without allocating.
func routingFor(ps *paths.PathSet) *attackRouting {
	return ps.Memo(attackRoutingKey{}, func() any { return newAttackRouting(ps) }).(*attackRouting)
}

func newAttackRouting(ps *paths.PathSet) *attackRouting {
	offsets, total := ps.Offsets()
	r := &attackRouting{
		offsets:   offsets,
		lens:      make([]int, ps.NumPairs()),
		slotPair:  make([]int, total),
		slotEdges: make([][]int, total),
	}
	for i, pp := range ps.PairPaths {
		r.lens[i] = len(pp)
		for k, path := range pp {
			r.slotPair[offsets[i]+k] = i
			r.slotEdges[offsets[i]+k] = path.Edges
		}
	}
	g := ps.Graph
	r.caps = make([]float64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		r.caps[e] = g.Edge(e).Capacity
	}
	slotPair, slotEdges, caps := r.slotPair, r.slotEdges, r.caps
	// Row-generalized like dote's utilization kernels: the batch size is
	// inferred from len(out)/len(caps), and R=1 reproduces the scalar math
	// exactly (restart groups depend on per-row equivalence).
	nPairs, nSlots := ps.NumPairs(), total
	r.mluFwd = func(in [][]float64, out []float64) {
		dd, ss := in[0], in[1]
		nE := len(caps)
		for base, db, sb := 0, 0, 0; base < len(out); base, db, sb = base+nE, db+nPairs, sb+nSlots {
			drow := dd[db : db+nPairs]
			srow := ss[sb : sb+nSlots]
			oo := out[base : base+nE]
			for slot, edges := range slotEdges {
				flow := drow[slotPair[slot]] * srow[slot]
				if flow == 0 {
					continue
				}
				for _, e := range edges {
					oo[e] += flow
				}
			}
			for e := range oo {
				oo[e] /= caps[e]
			}
		}
	}
	r.mluBwd = func(in [][]float64, out, gout []float64, gin [][]float64) {
		dd, ss := in[0], in[1]
		gd, gs := gin[0], gin[1]
		nE := len(caps)
		for base, db, sb := 0, 0, 0; base < len(gout); base, db, sb = base+nE, db+nPairs, sb+nSlots {
			drow := dd[db : db+nPairs]
			srow := ss[sb : sb+nSlots]
			gg := gout[base : base+nE]
			for slot, edges := range slotEdges {
				sum := 0.0
				for _, e := range edges {
					sum += gg[e] / caps[e]
				}
				gd[db+slotPair[slot]] += srow[slot] * sum
				gs[sb+slot] += drow[slotPair[slot]] * sum
			}
		}
	}
	return r
}

// constraintMLUBatch computes MLU(d, f) of Eq. 3/4 differentiably for each
// of rows search points: fLogits are free variables turned into valid split
// ratios by a per-pair softmax, the demand is routed with them, and each
// row's max utilization lands in mlus with its gradients in gradD/gradF.
// demand is [rows·demandLen] and fLogits [rows·nSlots], both row-major over
// the group's active restarts, and the gradients share those layouts. ones
// must be an all-ones seed of length rows. All buffers are caller-owned and
// hoisted out of the search loops; the tape is pooled, so nothing
// tape-backed escapes. Each row's arithmetic does not depend on rows: the
// per-row softmax segments and the per-row SegmentMax (first-attaining
// subgradient) are the same for every batch size.
func (a *AttackTarget) constraintMLUBatch(demand, fLogits []float64, rows int, gradD, gradF, mlus, ones []float64) {
	r := routingFor(a.PS)
	t := ad.GetTape()
	defer ad.PutTape(t)
	d := t.Var(demand)
	fl := t.Var(fLogits)
	ss := r.batchSoftmaxSegs(rows)
	f := ad.SegmentSoftmax(fl, ss.offsets, ss.lens)
	util := ad.Custom(t, []ad.Value{d, f}, rows*len(r.caps), 1, r.mluFwd, r.mluBwd)
	ms := r.batchMaxSegs(rows)
	mx := ad.SegmentMax(util, ms.offsets, ms.lens)
	ad.BackwardVJP(mx, ones)
	copy(mlus, mx.Data())
	copy(gradD, d.Grad())
	copy(gradF, fl.Grad())
}
