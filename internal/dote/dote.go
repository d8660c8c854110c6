// Package dote implements the learning-enabled traffic-engineering pipeline
// of Figure 2, after DOTE (Perry et al., NSDI '23): a DNN maps the last K
// traffic matrices to split-ratio logits, a post-processor normalizes them
// into per-demand split ratios, and the routing stage yields the MLU.
//
// Two variants are evaluated in §5:
//   - DOTE-Hist: the DNN sees the last K=12 demand matrices and must predict
//     splits for the (unseen) next epoch.
//   - DOTE-Curr: the DNN sees the current matrix itself (like Teal).
package dote

import (
	"fmt"
	"sync"

	"repro/internal/ad"
	"repro/internal/nn"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/te"
)

// Variant selects the pipeline input.
type Variant int

const (
	// Hist is DOTE-Hist: input = last K traffic matrices.
	Hist Variant = iota
	// Curr is DOTE-Curr: input = the current traffic matrix.
	Curr
)

func (v Variant) String() string {
	if v == Curr {
		return "DOTE-Curr"
	}
	return "DOTE-Hist"
}

// Config describes a DOTE model.
type Config struct {
	Variant Variant
	// HistLen is K, the number of history matrices (ignored for Curr,
	// which always uses 1).
	HistLen int
	// Hidden lists the hidden layer widths.
	Hidden []int
	// Act is the hidden activation. DOTE uses a smooth nonlinearity; the
	// default is ELU, which white-box tools cannot encode exactly (§5).
	Act nn.ActKind
	// Seed controls weight initialization.
	Seed uint64
}

// DefaultConfig returns the §5 configuration for the given variant.
func DefaultConfig(v Variant) Config {
	k := 12
	if v == Curr {
		k = 1
	}
	return Config{Variant: v, HistLen: k, Hidden: []int{128, 128}, Act: nn.ActELU, Seed: 1}
}

// Model is a DOTE pipeline bound to a topology's path set.
type Model struct {
	PS  *paths.PathSet
	Cfg Config
	Net *nn.Sequential

	// segment layout of the split-ratio vector
	offsets, lens []int
	totalPaths    int
	// routing incidence: for each path slot, its pair and edge list
	slotPair  []int
	slotEdges [][]int
	caps      []float64
	// utilization kernels, built once in New so the per-call hot path
	// records them onto the tape without allocating closures
	utilFwd func(in [][]float64, out []float64)
	utilBwd func(in [][]float64, out, gout []float64, gin [][]float64)
	// InputScale normalizes demands before they enter the DNN.
	InputScale float64

	// per-batch-size segment layouts for the batched stages, built lazily
	// and cached for the life of the model (batch sizes are few: at most
	// one per distinct active-restart count)
	batchMu   sync.Mutex
	batchSegs map[int]*batchSegments
}

// batchSegments replicates the per-pair segment layout across R rows of a
// flattened [R·T] logits/splits vector. The slices are handed to the tape's
// segment ops, which retain them until Reset — they are cached here and
// never mutated, satisfying that contract.
type batchSegments struct {
	offsets, lens []int
}

// batchSegments returns the cached R-row segment layout.
func (m *Model) batchSegments(rows int) *batchSegments {
	m.batchMu.Lock()
	defer m.batchMu.Unlock()
	if bs, ok := m.batchSegs[rows]; ok {
		return bs
	}
	if m.batchSegs == nil {
		m.batchSegs = make(map[int]*batchSegments)
	}
	nSeg := len(m.offsets)
	bs := &batchSegments{
		offsets: make([]int, rows*nSeg),
		lens:    make([]int, rows*nSeg),
	}
	for r := 0; r < rows; r++ {
		for i := 0; i < nSeg; i++ {
			bs.offsets[r*nSeg+i] = r*m.totalPaths + m.offsets[i]
			bs.lens[r*nSeg+i] = m.lens[i]
		}
	}
	m.batchSegs[rows] = bs
	return bs
}

// New builds a DOTE model for the given path set.
func New(ps *paths.PathSet, cfg Config) *Model {
	if cfg.Variant == Curr {
		cfg.HistLen = 1
	}
	if cfg.HistLen < 1 {
		panic("dote: HistLen must be >= 1")
	}
	offsets, total := ps.Offsets()
	lens := make([]int, ps.NumPairs())
	for i, pp := range ps.PairPaths {
		lens[i] = len(pp)
	}
	slotPair := make([]int, total)
	slotEdges := make([][]int, total)
	for i, pp := range ps.PairPaths {
		for k, path := range pp {
			slotPair[offsets[i]+k] = i
			slotEdges[offsets[i]+k] = path.Edges
		}
	}
	sizes := append([]int{cfg.HistLen * ps.NumPairs()}, cfg.Hidden...)
	sizes = append(sizes, total)
	m := &Model{
		PS:         ps,
		Cfg:        cfg,
		Net:        nn.MLP("dote", sizes, cfg.Act, rng.New(cfg.Seed)),
		offsets:    offsets,
		lens:       lens,
		totalPaths: total,
		slotPair:   slotPair,
		slotEdges:  slotEdges,
		InputScale: ps.Graph.AvgLinkCapacity(),
	}
	g := ps.Graph
	m.caps = make([]float64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		m.caps[e] = g.Edge(e).Capacity
	}
	caps := m.caps
	// The utilization kernels are row-generalized: they infer the batch size
	// from len(out)/len(caps) and route each [demand|splits] row into its own
	// utilization row, so the same closures serve the scalar pipeline (R=1)
	// and multi-restart groups. Per-row arithmetic is identical in both
	// cases, a requirement for batched/scalar trajectory equivalence.
	nPairs, nSlots := ps.NumPairs(), total
	m.utilFwd = func(in [][]float64, out []float64) {
		d, s := in[0], in[1]
		nE := len(caps)
		for base, db, sb := 0, 0, 0; base < len(out); base, db, sb = base+nE, db+nPairs, sb+nSlots {
			dd := d[db : db+nPairs]
			ss := s[sb : sb+nSlots]
			oo := out[base : base+nE]
			for slot, edges := range slotEdges {
				f := dd[slotPair[slot]] * ss[slot]
				if f == 0 {
					continue
				}
				for _, e := range edges {
					oo[e] += f
				}
			}
			for e := range oo {
				oo[e] /= caps[e]
			}
		}
	}
	m.utilBwd = func(in [][]float64, out, gout []float64, gin [][]float64) {
		d, s := in[0], in[1]
		gd, gs := gin[0], gin[1]
		nE := len(caps)
		for base, db, sb := 0, 0, 0; base < len(gout); base, db, sb = base+nE, db+nPairs, sb+nSlots {
			dd := d[db : db+nPairs]
			ss := s[sb : sb+nSlots]
			gg := gout[base : base+nE]
			for slot, edges := range slotEdges {
				sum := 0.0
				for _, e := range edges {
					sum += gg[e] / caps[e]
				}
				if gd != nil {
					gd[db+slotPair[slot]] += ss[slot] * sum
				}
				if gs != nil {
					gs[sb+slot] += dd[slotPair[slot]] * sum
				}
			}
		}
	}
	return m
}

// NumPairs returns the demand dimensionality.
func (m *Model) NumPairs() int { return m.PS.NumPairs() }

// TotalPaths returns the split-ratio dimensionality.
func (m *Model) TotalPaths() int { return m.totalPaths }

// HistoryDim returns the DNN input dimensionality (K · pairs).
func (m *Model) HistoryDim() int { return m.Cfg.HistLen * m.PS.NumPairs() }

// InputDim returns the dimensionality of the full adversarial search space:
// the DNN input plus, for DOTE-Hist, the next-epoch demand. For DOTE-Curr
// the current matrix plays both roles, so InputDim == NumPairs.
func (m *Model) InputDim() int {
	if m.Cfg.Variant == Curr {
		return m.PS.NumPairs()
	}
	return m.HistoryDim() + m.PS.NumPairs()
}

// SplitInput separates a search-space vector into the DNN history input and
// the demand to be routed.
func (m *Model) SplitInput(x []float64) (history, demand []float64) {
	if len(x) != m.InputDim() {
		panic(fmt.Sprintf("dote: input length %d, want %d", len(x), m.InputDim()))
	}
	if m.Cfg.Variant == Curr {
		return x, x
	}
	return x[:m.HistoryDim()], x[m.HistoryDim():]
}

// JoinInput concatenates history and demand into a search-space vector.
func (m *Model) JoinInput(history []float64, demand te.TrafficMatrix) []float64 {
	if m.Cfg.Variant == Curr {
		out := make([]float64, len(demand))
		copy(out, demand)
		return out
	}
	if len(history) != m.HistoryDim() {
		panic("dote: history length mismatch")
	}
	out := make([]float64, 0, m.InputDim())
	out = append(out, history...)
	out = append(out, demand...)
	return out
}

// LogitsValue runs the DNN on a (scaled) history input of shape [1, K·P],
// returning raw split logits of shape [1, totalPaths].
func (m *Model) LogitsValue(c *nn.Ctx, hist ad.Value) ad.Value {
	scaled := ad.Scale(hist, 1/m.InputScale)
	return m.Net.Forward(c, scaled)
}

// SplitsValue converts logits (shape [1, T] or [T]) to split ratios via the
// per-demand softmax post-processor.
func (m *Model) SplitsValue(logits ad.Value) ad.Value {
	flat := ad.Reshape(logits, logits.Len(), 1)
	return ad.SegmentSoftmax(flat, m.offsets, m.lens)
}

// UtilizationValue routes demand (length P) according to splits (length T)
// and returns per-edge utilization (length E). Both inputs are tape values,
// so gradients flow to demands AND splits — the bilinear routing stage.
func (m *Model) UtilizationValue(t *ad.Tape, demand, splits ad.Value) ad.Value {
	return ad.Custom(t, []ad.Value{demand, splits}, len(m.caps), 1, m.utilFwd, m.utilBwd)
}

// MLUValue reduces per-edge utilization to the scalar MLU.
func (m *Model) MLUValue(util ad.Value) ad.Value { return ad.Max(util) }

// Splits runs inference: history (length K·P, raw demand units) to split
// ratios.
func (m *Model) Splits(history []float64) te.Splits {
	c := nn.GetCtx(false)
	defer nn.PutCtx(c)
	h := c.T.ConstMat(history, 1, len(history))
	logits := m.LogitsValue(c, h)
	s := m.SplitsValue(logits)
	out := make(te.Splits, s.Len())
	copy(out, s.Data())
	return out
}

// String renders the model briefly.
func (m *Model) String() string {
	return fmt.Sprintf("%s(K=%d, hidden=%v, %s)", m.Cfg.Variant, m.Cfg.HistLen, m.Cfg.Hidden, m.Cfg.Act)
}

// PerformanceRatio evaluates Eq. 2 on a search-space input: the pipeline's
// MLU over the LP-optimal MLU for the routed demand.
func (m *Model) PerformanceRatio(x []float64) (ratio, sys, opt float64, err error) {
	history, demand := m.SplitInput(x)
	splits := m.Splits(history)
	return te.PerformanceRatio(m.PS, te.TrafficMatrix(demand), splits)
}
