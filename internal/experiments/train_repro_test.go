package experiments

import (
	"math"
	"testing"

	"repro/internal/dote"
)

// TestPrepareTrainingReproducible trains the quick DOTE-Hist setup three
// times in one process and requires bitwise-equal weights. Training divides
// by optimal-MLU LP optima, so this holds only if an optimum does not depend
// on which pooled LP solver computed it. Run it under -race too: the race
// detector's sync.Pool drops pooled objects at random.
func TestPrepareTrainingReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three models")
	}
	var first [][]float64
	for run := 0; run < 3; run++ {
		s, err := Prepare(QuickSetup(dote.Hist))
		if err != nil {
			t.Fatal(err)
		}
		var weights [][]float64
		for _, p := range s.Model.Net.Params() {
			weights = append(weights, p.Data)
		}
		if run == 0 {
			first = weights
			continue
		}
		differ := 0
		for i := range weights {
			for j := range weights[i] {
				if math.Float64bits(weights[i][j]) != math.Float64bits(first[i][j]) {
					differ++
				}
			}
		}
		if differ != 0 {
			t.Errorf("run %d: %d weights differ from run 0", run, differ)
		}
	}
}
