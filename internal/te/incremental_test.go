package te

import (
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/topology"
)

func randomPoint(ps *paths.PathSet, r *rng.RNG) (TrafficMatrix, Splits) {
	tm := make(TrafficMatrix, ps.NumPairs())
	for i := range tm {
		if r.Float64() < 0.2 {
			continue // keep some exact zeros in play
		}
		tm[i] = 5 * r.Float64()
	}
	off, total := ps.Offsets()
	s := make(Splits, total)
	for i, pp := range ps.PairPaths {
		if len(pp) == 0 {
			continue
		}
		sum := 0.0
		for k := range pp {
			v := r.Float64()
			if r.Float64() < 0.25 {
				v = 0
			}
			s[off[i]+k] = v
			sum += v
		}
		if sum == 0 {
			s[off[i]] = 1
			sum = 1
		}
		for k := range pp {
			s[off[i]+k] /= sum
		}
	}
	return tm, s
}

// LinkLoads returns the resident per-edge loads. The slice is owned by the
// evaluator and valid until the next Rebase; callers must not modify it.
func (ev *IncrementalEvaluator) LinkLoads() []float64 { return ev.loads }

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestIncrementalProbesExactAfterRebase pins the probe contract the sparse
// FD fast path depends on: immediately after Rebase, ProbeDemand/ProbeSplit
// are bitwise identical to a full evaluation at the perturbed point.
func TestIncrementalProbesExactAfterRebase(t *testing.T) {
	ps := abilenePS()
	r := rng.New(3)
	tm, s := randomPoint(ps, r)
	ev := NewIncrementalEvaluator(ps)
	ev.Rebase(tm, s)
	_, total := ps.Offsets()

	fullMax := func(tm TrafficMatrix, s Splits) float64 {
		u := Utilizations(ps, LinkLoads(ps, tm, s))
		best := u[0]
		for _, v := range u[1:] {
			if v > best {
				best = v
			}
		}
		return best
	}

	const h = 1e-4
	tmp := tm.Clone()
	for pair := 0; pair < ps.NumPairs(); pair++ {
		for _, d := range []float64{h, -h} {
			got := ev.ProbeDemand(pair, d)
			tmp[pair] = tm[pair] + d
			want := fullMax(tmp, s)
			tmp[pair] = tm[pair]
			if got != want {
				t.Fatalf("ProbeDemand(%d, %v) = %v, want exactly %v", pair, d, got, want)
			}
		}
	}
	stmp := append(Splits{}, s...)
	for slot := 0; slot < total; slot++ {
		for _, d := range []float64{h, -h} {
			got := ev.ProbeSplit(slot, d)
			stmp[slot] = s[slot] + d
			want := fullMax(tm, stmp)
			stmp[slot] = s[slot]
			if got != want {
				t.Fatalf("ProbeSplit(%d, %v) = %v, want exactly %v", slot, d, got, want)
			}
		}
	}
	// Probes must not have mutated the operating point.
	wantLoads := LinkLoads(ps, tm, s)
	for e, l := range ev.LinkLoads() {
		if l != wantLoads[e] {
			t.Fatalf("probe mutated loads at edge %d", e)
		}
	}
}

// TestIncrementalProbeRescanPath forces the argmax link to decrease under a
// probe so the O(E) rescan branch is covered.
func TestIncrementalProbeRescanPath(t *testing.T) {
	ps := trianglePS()
	tm := make(TrafficMatrix, ps.NumPairs())
	tm[0] = 10 // one dominant pair: its path edges hold the argmax
	s := UniformSplits(ps)
	ev := NewIncrementalEvaluator(ps)
	reg := obs.NewRegistry()
	ev.Instrument(reg)
	ev.Rebase(tm, s)

	got := ev.ProbeDemand(0, -9.5)
	tm2 := tm.Clone()
	tm2[0] = 0.5
	want, _ := MLU(ps, tm2, s)
	if relErr(got, want) > 1e-12 {
		t.Fatalf("rescan probe = %v, want %v", got, want)
	}
	if n := reg.Snapshot().Counters["te.incr.rescans"]; n < 1 {
		t.Fatalf("expected a rescan, counter = %d", n)
	}
}

// TestIncrementalConcurrentEvaluators is the -race leg: independent
// evaluators over a shared PathSet rebasing and probing concurrently must
// not race.
func TestIncrementalConcurrentEvaluators(t *testing.T) {
	ps := abilenePS()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			tm, s := randomPoint(ps, r)
			ev := NewIncrementalEvaluator(ps)
			ev.Rebase(tm, s)
			for i := 0; i < 200; i++ {
				pair := r.Intn(ps.NumPairs())
				ev.ProbeDemand(pair, 1e-4)
				tm[pair] = 2 * r.Float64()
				ev.Rebase(tm, s)
			}
			mlu, _ := ev.MLU()
			if math.IsNaN(mlu) {
				t.Errorf("NaN MLU")
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}

// TestProbeSupportCertificate pins the probe-support certificate the sparse
// gradient fast path relies on: every coordinate SplitProbeCanMoveMax /
// DemandProbeCanMoveMax rejects must return the resident MLU BITWISE from
// both ±h probes (so its central difference is exactly zero), and on
// bottleneck-structured operating points the certified set must be a strict
// minority of the coordinates — otherwise certifying buys nothing.
func TestProbeSupportCertificate(t *testing.T) {
	const h = 1e-4
	for _, tc := range []struct {
		name string
		ps   *paths.PathSet
	}{
		{"triangle", trianglePS()},
		{"abilene", abilenePS()},
		{"geant", paths.NewPathSet(topology.Geant(), 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := tc.ps
			r := rng.New(11)
			_, total := ps.Offsets()
			for trial := 0; trial < 4; trial++ {
				tm, s := randomPoint(ps, r)
				ev := NewIncrementalEvaluator(ps)
				ev.Rebase(tm, s)
				maxU, _ := ev.MLU()
				certified, coords := 0, total+ps.NumPairs()
				for slot := 0; slot < total; slot++ {
					can := ev.SplitProbeCanMoveMax(slot, h)
					fp, fm := ev.ProbeSplit(slot, h), ev.ProbeSplit(slot, -h)
					if can {
						certified++
					} else if fp != maxU || fm != maxU {
						t.Fatalf("trial %d slot %d: certificate says zero but probes %v / %v, resident %v",
							trial, slot, fp, fm, maxU)
					}
				}
				for pair := 0; pair < ps.NumPairs(); pair++ {
					can := ev.DemandProbeCanMoveMax(pair, h)
					fp, fm := ev.ProbeDemand(pair, h), ev.ProbeDemand(pair, -h)
					if can {
						certified++
					} else if fp != maxU || fm != maxU {
						t.Fatalf("trial %d pair %d: certificate says zero but probes %v / %v, resident %v",
							trial, pair, fp, fm, maxU)
					}
				}
				if certified == 0 {
					t.Fatalf("trial %d: empty certificate at MLU %v", trial, maxU)
				}
				if coords > 100 && certified > coords/2 {
					t.Fatalf("trial %d: certificate covers %d of %d coordinates — not sparse", trial, certified, coords)
				}
				t.Logf("trial %d: certified %d of %d coordinates", trial, certified, coords)
			}
		})
	}
}
