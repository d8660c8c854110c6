package core

// -race regression coverage for the online surrogate: one learner is shared
// across search workers, so observation, training and gradient serving race
// against each other. CI runs this under -race.

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestOnlineSurrogateConcurrentForwardTrain(t *testing.T) {
	opaque := &Func{ComponentName: "h", Fn: func(x []float64) []float64 {
		return []float64{x[0]*x[0] + 0.5*x[1]}
	}}
	cfg := DefaultSurrogateConfig(21)
	cfg.Warmup = 8
	cfg.TrainSteps = 1
	s := WithOnlineSurrogate(opaque, 2, 1, cfg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			for i := 0; i < 60; i++ {
				x := []float64{r.Uniform(-1, 1), r.Uniform(-1, 1)}
				s.Forward(x)
				s.VJP(x, []float64{1})
			}
		}(w)
	}
	wg.Wait()
	if got := s.(*onlineSurrogate).Observations(); got != 8*60 {
		t.Fatalf("observations = %d, want %d", got, 8*60)
	}
}
