package dote

import (
	"math"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rng"
)

// TestSharedModelBatchVJPConcurrent: goroutines that run BatchVJP and
// BatchForward on one Model at once record on concurrent tapes that all
// alias the same weight matrices (inference binds weights by reference).
// Each result must be bitwise equal to the same call run serially, and no
// call may write the shared weights. Run under -race.
func TestSharedModelBatchVJPConcurrent(t *testing.T) {
	for _, v := range []Variant{Curr, Hist} {
		m := abileneModel(v, []int{32, 32})
		var weights [][]float64
		for _, p := range m.Net.Params() {
			weights = append(weights, append([]float64(nil), p.Data...))
		}
		const workers = 4
		r := rng.New(17)
		maxD := m.PS.Graph.AvgLinkCapacity()
		xs := make([]*linalg.Matrix, workers)
		ones := make([]*linalg.Matrix, workers)
		wantG := make([]*linalg.Matrix, workers)
		wantY := make([]*linalg.Matrix, workers)
		for w := range xs {
			rows := w + 1 // mixed batch sizes: one-row calls beside groups
			xs[w] = linalg.NewMatrix(rows, m.InputDim())
			for i := range xs[w].Data {
				xs[w].Data[i] = r.Float64() * maxD
			}
			ones[w] = linalg.NewMatrix(rows, 1)
			for i := range ones[w].Data {
				ones[w].Data[i] = 1
			}
			p := m.Pipeline()
			wantG[w] = p.BatchVJP(xs[w], ones[w])
			wantY[w] = p.BatchForward(xs[w])
		}

		errs := make(chan string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := m.Pipeline()
				for rep := 0; rep < 5; rep++ {
					if d := firstDiff(wantG[w].Data, p.BatchVJP(xs[w], ones[w]).Data); d >= 0 {
						errs <- "gradient"
						return
					}
					if d := firstDiff(wantY[w].Data, p.BatchForward(xs[w]).Data); d >= 0 {
						errs <- "forward"
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%v: concurrent %s differs from the serial run", v, e)
		}
		for i, p := range m.Net.Params() {
			if d := firstDiff(weights[i], p.Data); d >= 0 {
				t.Fatalf("%v: weight %s[%d] changed under concurrent inference", v, p.Name, d)
			}
		}
	}
}

// firstDiff returns the first index where a and b differ bitwise, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
