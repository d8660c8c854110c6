// Package alloc is the repository's second full case study: a gray-box
// end-to-end performance analysis of an ML-augmented VM allocator, in the
// shape of the follow-up paper ("A Performance Analyzer for a Public
// Cloud's ML-Augmented VM Allocator", same group). The pipeline mirrors
// that system:
//
//	request mix ──► ML scorer ──► placement post-processor ──► fragmentation
//	  [T]           (MLP over      (per-type softmax over        metric
//	                 candidate      hosts, on the ad tape)       (opaque)
//	                 hosts)
//
// and the optimal baseline is the integral bin-packing MILP
// (internal/milp) treated as the OPAQUE component: the analyzer never sees
// inside the branch and bound, it only scores candidates against its
// incumbent through core.AttackTarget.RatioOverride. Everything else —
// FD/SPSA gray-boxing, gradient search, EvalCache memoization, telemetry —
// is the exact same internal/core machinery the DOTE case study uses,
// which is the point: two domains, one analyzer.
package alloc

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ad"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Config describes the datacenter slice and the scorer.
type Config struct {
	// TypeDemands[t][r] is the per-instance demand of VM type t on
	// resource r (e.g. vCPUs, memory).
	TypeDemands [][]float64
	// HostCaps[h][r] is host h's capacity on resource r.
	HostCaps [][]float64
	// MaxCount is the per-type request-count box bound the adversary
	// searches within (the alloc analog of MaxDemand).
	MaxCount float64
	// Hidden is the scorer MLP's hidden layer widths.
	Hidden []int
	// Seed drives scorer initialization and training traffic.
	Seed uint64
	// TrainEpochs is the number of self-supervised training steps.
	TrainEpochs int
	// TrainLR is the Adam learning rate.
	TrainLR float64
	// MILPMaxNodes bounds the packing MILP's branch and bound per solve.
	// Node budgets (not wall-clock ones) keep scoring deterministic.
	MILPMaxNodes int
	// MILPMaxTime optionally bounds MILP wall clock (0 = unlimited;
	// introduces timing nondeterminism, so the self-checks leave it 0).
	MILPMaxTime time.Duration
}

// DefaultConfig is the full-scale configuration: 6 VM types across 4
// heterogeneous hosts and 2 resources (vCPU, memory).
func DefaultConfig() Config {
	return Config{
		TypeDemands: [][]float64{
			{1, 2}, // small, memory-leaning
			{2, 1}, // small, cpu-leaning
			{4, 4}, // balanced medium
			{8, 2}, // cpu-heavy large
			{2, 8}, // memory-heavy large
			{1, 1}, // micro
		},
		HostCaps: [][]float64{
			{16, 16},
			{32, 24},
			{24, 32},
			{48, 48},
		},
		MaxCount:     12,
		Hidden:       []int{48},
		TrainEpochs:  400,
		TrainLR:      2e-3,
		MILPMaxNodes: 20000,
	}
}

// QuickConfig is the laptop-scale configuration used by tests, the
// examples/alloc self-check and -quick CLI runs.
func QuickConfig() Config {
	c := DefaultConfig()
	c.TypeDemands = c.TypeDemands[:4]
	c.HostCaps = c.HostCaps[:3]
	c.MaxCount = 8
	c.Hidden = []int{32}
	c.TrainEpochs = 200
	c.MILPMaxNodes = 8000
	return c
}

// System is an instantiated allocator: the datacenter shape plus a scorer.
type System struct {
	Cfg     Config
	T, H, R int
	Scorer  *nn.Sequential

	// Obs, when non-nil, receives the packing MILP's telemetry (milp.nodes,
	// milp.warm_hits, …) so `-metrics` surfaces the baseline's solver work.
	Obs *obs.Registry
	// ctx bounds baseline MILP solves; set via Bind (nil = background). The
	// indirection exists because core.AttackTarget.RatioOverride has no
	// context parameter — the search's context is bound once up front.
	ctx context.Context

	// offsets/lens are the per-type host segments of the [T·H] logit
	// vector, shared by every softmax in the package. Retained by live
	// tapes, so never mutated after New.
	offsets, lens []int

	// loadFwd/loadBwd are the placement kernels recorded onto tapes by the
	// placement stage and the training objective: built once here so the
	// per-evaluation hot path allocates no closures.
	loadFwd func(in [][]float64, out []float64)
	loadBwd func(in [][]float64, out, gout []float64, gin [][]float64)
}

// New builds a system with a freshly initialized (untrained) scorer.
func New(cfg Config) (*System, error) {
	T := len(cfg.TypeDemands)
	H := len(cfg.HostCaps)
	if T == 0 || H == 0 {
		return nil, fmt.Errorf("alloc: need at least one VM type and one host")
	}
	R := len(cfg.TypeDemands[0])
	for t, d := range cfg.TypeDemands {
		if len(d) != R {
			return nil, fmt.Errorf("alloc: type %d has %d resources, want %d", t, len(d), R)
		}
	}
	for h, c := range cfg.HostCaps {
		if len(c) != R {
			return nil, fmt.Errorf("alloc: host %d has %d resources, want %d", h, len(c), R)
		}
		for r, v := range c {
			if v <= 0 {
				return nil, fmt.Errorf("alloc: host %d resource %d capacity %v must be positive", h, r, v)
			}
		}
	}
	if cfg.MaxCount <= 0 {
		return nil, fmt.Errorf("alloc: MaxCount must be positive")
	}
	s := &System{Cfg: cfg, T: T, H: H, R: R}
	sizes := append(append([]int{T}, cfg.Hidden...), T*H)
	s.Scorer = nn.MLP("vm-scorer", sizes, nn.ActELU, rng.New(cfg.Seed))
	s.offsets = make([]int, T)
	s.lens = make([]int, T)
	for t := 0; t < T; t++ {
		s.offsets[t] = t * H
		s.lens[t] = H
	}
	dem, caps := cfg.TypeDemands, cfg.HostCaps
	s.loadFwd = func(in [][]float64, out []float64) {
		mix, shares := in[0], in[1]
		for t := 0; t < T; t++ {
			if mix[t] == 0 {
				continue
			}
			for h := 0; h < H; h++ {
				f := mix[t] * shares[t*H+h]
				for r := 0; r < R; r++ {
					out[h*R+r] += f * dem[t][r]
				}
			}
		}
		for h := 0; h < H; h++ {
			for r := 0; r < R; r++ {
				out[h*R+r] /= caps[h][r]
			}
		}
	}
	s.loadBwd = func(in [][]float64, out, gout []float64, gin [][]float64) {
		mix, shares := in[0], in[1]
		gm, gs := gin[0], gin[1]
		for t := 0; t < T; t++ {
			for h := 0; h < H; h++ {
				sum := 0.0
				for r := 0; r < R; r++ {
					sum += gout[h*R+r] * dem[t][r] / caps[h][r]
				}
				if gm != nil {
					gm[t] += shares[t*H+h] * sum
				}
				if gs != nil {
					gs[t*H+h] += mix[t] * sum
				}
			}
		}
	}
	return s, nil
}

// Train runs the self-supervised recipe of the DOTE family: the scorer
// directly minimizes the differentiable softmax-placement utilization on
// random request mixes — the same "train against the metric you serve"
// loop the VM allocator paper describes for its scorer. Deterministic for
// a fixed Config.Seed. progress, when non-nil, receives occasional lines.
func (s *System) Train(progress func(string)) {
	r := rng.New(s.Cfg.Seed + 1)
	opt := nn.NewAdam(s.Cfg.TrainLR)
	mix := make([]float64, s.T)
	for epoch := 0; epoch < s.Cfg.TrainEpochs; epoch++ {
		for i := range mix {
			mix[i] = r.Float64() * s.Cfg.MaxCount / 2
		}
		c := nn.GetCtx(true)
		loss := s.softUtil(c, mix)
		nn.ZeroGrads(s.Scorer.Params())
		ad.Backward(loss)
		c.Harvest()
		lv := loss.ScalarValue()
		nn.PutCtx(c)
		opt.Step(s.Scorer.Params())
		if progress != nil && (epoch+1)%100 == 0 {
			progress(fmt.Sprintf("alloc scorer epoch %d/%d: soft util %.3f", epoch+1, s.Cfg.TrainEpochs, lv))
		}
	}
}

// softUtil is the differentiable training objective: scorer logits →
// softmax placement → max host utilization.
func (s *System) softUtil(c *nn.Ctx, mix []float64) ad.Value {
	in := c.T.ConstMat(mix, 1, s.T)
	logits := s.Scorer.Forward(c, ad.Scale(in, 1/s.Cfg.MaxCount))
	shares := ad.SegmentSoftmax(ad.Reshape(logits, s.T*s.H, 1), s.offsets, s.lens)
	mv := c.T.Const(mix)
	util := ad.Custom(c.T, []ad.Value{mv, shares}, s.H*s.R, 1, s.loadFwd, s.loadBwd)
	return ad.Max(util)
}

// scoreLogits evaluates the scorer on a mix, returning the [T·H] logits.
// The result is copied out of the pooled tape.
func (s *System) scoreLogits(mix []float64) []float64 {
	c := nn.GetCtx(false)
	defer nn.PutCtx(c)
	in := c.T.ConstMat(mix, 1, s.T)
	logits := s.Scorer.Forward(c, ad.Scale(in, 1/s.Cfg.MaxCount))
	out := make([]float64, s.T*s.H)
	copy(out, logits.Data())
	return out
}

// placeUtil computes per-host per-resource utilizations [H·R] from a
// [mix | logits] vector in plain Go, with the same max-subtracted softmax
// arithmetic as ad.SegmentSoftmax.
func (s *System) placeUtil(x []float64) []float64 {
	mix, logits := x[:s.T], x[s.T:]
	util := make([]float64, s.H*s.R)
	shares := make([]float64, s.H)
	for t := 0; t < s.T; t++ {
		seg := logits[t*s.H : (t+1)*s.H]
		m := math.Inf(-1)
		for _, v := range seg {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for h, v := range seg {
			e := math.Exp(v - m)
			shares[h] = e
			sum += e
		}
		for h := 0; h < s.H; h++ {
			f := mix[t] * shares[h] / sum
			for r := 0; r < s.R; r++ {
				util[h*s.R+r] += f * s.Cfg.TypeDemands[t][r]
			}
		}
	}
	for h := 0; h < s.H; h++ {
		for r := 0; r < s.R; r++ {
			util[h*s.R+r] /= s.Cfg.HostCaps[h][r]
		}
	}
	return util
}

// maxUtil reduces a utilization vector to the packing metric: the maximum
// per-host per-resource utilization (the bin-packing analog of the MLU).
func maxUtil(util []float64) float64 {
	m := 0.0
	for _, v := range util {
		if v > m {
			m = v
		}
	}
	return m
}

// Forward evaluates the whole allocator on a request mix: scorer →
// placement → metric. This is the system H(x) whose worst case the
// analyzer hunts.
func (s *System) Forward(mix []float64) float64 {
	x := make([]float64, s.T+s.T*s.H)
	copy(x, mix)
	copy(x[s.T:], s.scoreLogits(mix))
	return maxUtil(s.placeUtil(x))
}

// Fragmentation summarizes how unevenly a mix's placement loads the hosts:
// 1 − mean/max utilization, in [0, 1). Zero means perfectly balanced; high
// values mean capacity stranded on idle hosts while one host saturates —
// the failure mode the VM-allocator analysis measures.
func (s *System) Fragmentation(mix []float64) float64 {
	x := make([]float64, s.T+s.T*s.H)
	copy(x, mix)
	copy(x[s.T:], s.scoreLogits(mix))
	util := s.placeUtil(x)
	max := maxUtil(util)
	if max == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range util {
		mean += v
	}
	mean /= float64(len(util))
	return 1 - mean/max
}

// Bind attaches ctx to every subsequent baseline MILP solve: when the
// analyzer's search context is cancelled or hits its deadline, in-flight
// packing solves stop at the next wave boundary instead of running their
// node budget out. Call once before the search; not safe to call
// concurrently with evaluations.
func (s *System) Bind(ctx context.Context) { s.ctx = ctx }

// AverageMix is the nominal operating point: every type at half its box
// bound — the mix the self-checks compare the adversarial ratio against.
func (s *System) AverageMix() []float64 {
	m := make([]float64, s.T)
	for i := range m {
		m[i] = s.Cfg.MaxCount / 2
	}
	return m
}
