package te_test

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/paths"
	"repro/internal/rng"
	"repro/internal/te"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// readTM reads a traffic matrix stored one demand per line.
func readTM(t *testing.T, path string) te.TrafficMatrix {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var tm te.TrafficMatrix
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			t.Fatalf("%s line %d: %v", path, len(tm)+1, err)
		}
		tm = append(tm, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tm
}

// assertSplitsAttainOptimum checks that OptimalMLU's splits route tm at the
// optimum it claims, within 1e-6: a claimed optimum below what its own
// routing achieves is an overclaim, and it would overstate every
// performance ratio divided by it.
func assertSplitsAttainOptimum(t *testing.T, ps *paths.PathSet, tm te.TrafficMatrix, label string) float64 {
	t.Helper()
	opt, splits, err := te.OptimalMLU(ps, tm)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	attained, _ := te.MLU(ps, tm, splits)
	if math.Abs(attained-opt) > 1e-6 {
		t.Fatalf("%s: optimal MLU claimed %.8f, its splits route at %.8f", label, opt, attained)
	}
	return opt
}

// TestOptimalMLUSplitsAttainOptimumGeantGate replays the demand matrix of
// the CI-gate Geant job (checkpoint examples/gate/geant-quick.ckpt, opaque
// scenario, iters 50, restarts 1, eval_every 50, job seed 277269233002) on
// which the dense tableau simplex claimed an optimal MLU of 8.73884264 while
// its own splits — one pair's summing to 0.989 instead of 1 — routed at
// 8.7448752. The true optimum is 8.74539404.
func TestOptimalMLUSplitsAttainOptimumGeantGate(t *testing.T) {
	ps := paths.NewPathSet(topology.Geant(), 4)
	tm := readTM(t, "testdata/geant_gate_dense_defect.tm")
	if len(tm) != ps.NumPairs() {
		t.Fatalf("matrix has %d entries, path set %d pairs", len(tm), ps.NumPairs())
	}
	opt := assertSplitsAttainOptimum(t, ps, tm, "gate job")
	if math.Abs(opt-8.74539404) > 1e-6 {
		t.Fatalf("optimal MLU %.8f, want 8.74539404", opt)
	}
}

// TestOptimalMLUSplitsAttainOptimumGeantProperty asserts the same
// certificate over perturbed Geant gravity matrices: every entry scaled by
// an independent factor in [0, 2), a tenth of them zeroed, so the LPs range
// over shapes (zero-demand pairs drop out) and dynamic ranges the gravity
// model alone does not produce.
func TestOptimalMLUSplitsAttainOptimumGeantProperty(t *testing.T) {
	ps := paths.NewPathSet(topology.Geant(), 4)
	r := rng.New(277269233)
	gen := traffic.NewGravity(ps, 0.6, r)
	for k := 0; k < 200; k++ {
		tm := gen.Next()
		for i := range tm {
			if r.Float64() < 0.1 {
				tm[i] = 0
			} else {
				tm[i] *= 2 * r.Float64()
			}
		}
		assertSplitsAttainOptimum(t, ps, tm, "matrix "+strconv.Itoa(k))
	}
}
