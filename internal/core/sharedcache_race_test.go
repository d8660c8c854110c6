package core

// -race regression for the shared-EvalCache observer clobbering bug: two
// concurrent GradientSearchContext calls over ONE memo cache each install a
// TrueEvalObserver fan-out. With a last-wins single-hook slot, the search
// that finished first detached the other's observers (its deferred clear
// clobbered the shared slot), silently starving the
// surviving search's surrogate learner. The subscriber registry keeps every
// live search's fan-out attached until that search itself returns.
//
// CI runs this under -race (the shared cache is hammered by both searches'
// restart workers while subscriptions come and go).

import (
	"context"
	"sync"
	"testing"
	"time"
)

// observedSearchTarget builds a cheap scalar-engine search target whose
// pipeline contains one obsStage recording every ObserveTrueEval fan-out.
func observedSearchTarget() (*AttackTarget, *obsStage) {
	stage := &obsStage{}
	p := NewPipeline(stage)
	return &AttackTarget{
		Pipeline:  p,
		InputDim:  4,
		MaxDemand: 1,
		RatioOverride: func(x []float64) (float64, float64, float64, error) {
			sys := p.EvalScalar(x)
			return sys, sys, 1, nil
		},
	}, stage
}

// TestConcurrentSearchesSharedEvalCacheObservers interleaves a short search A
// inside a long search B, both over one shared cache, with channel-gated
// ordering so the schedule is deterministic: B attaches first, A starts and
// finishes strictly inside B's lifetime, then B keeps inserting. Since B's
// fan-out is attached for every insert of the whole test, B's learner must
// observe exactly one event per fresh insert — under the clobbering bug it
// goes blind the moment A returns (and during A's run), and this count
// assertion fails.
func TestConcurrentSearchesSharedEvalCacheObservers(t *testing.T) {
	cache := NewEvalCache(1<<14, 0)

	targetA, stageA := observedSearchTarget()
	targetB, stageB := observedSearchTarget()

	bAttached := make(chan struct{}) // closed when B's restart 0 reaches iter 20
	aDone := make(chan struct{})     // closed when search A has returned

	cfgB := DefaultGradientConfig()
	cfgB.Iters = 200
	cfgB.Restarts = 2
	cfgB.EvalEvery = 1
	cfgB.Patience = 0 // never retire early: B must outlive A
	cfgB.Seed = 7
	cfgB.Engine = EngineScalar
	cfgB.EvalCache = cache
	cfgB.FaultInjector = func(restart, iter int, x []float64) error {
		if restart == 0 && iter == 20 {
			close(bAttached)
			<-aDone // hold B mid-flight while A runs and detaches
		}
		return nil
	}

	var wg sync.WaitGroup
	var resB *SearchResult
	var errB error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resB, errB = GradientSearchContext(context.Background(), targetB, cfgB)
	}()

	select {
	case <-bAttached:
	case <-time.After(30 * time.Second):
		t.Fatal("search B never reached its gate")
	}

	cfgA := DefaultGradientConfig()
	cfgA.Iters = 30
	cfgA.Restarts = 2
	cfgA.EvalEvery = 1
	cfgA.Patience = 0
	cfgA.Seed = 1301 // disjoint RNG stream from B: (mostly) distinct points
	cfgA.Engine = EngineScalar
	cfgA.EvalCache = cache
	resA, errA := GradientSearchContext(context.Background(), targetA, cfgA)
	close(aDone)
	wg.Wait()

	if errA != nil || errB != nil {
		t.Fatalf("search errors: A=%v B=%v", errA, errB)
	}
	if !resA.Found || !resB.Found {
		t.Fatalf("searches found nothing: A=%v B=%v", resA.Found, resB.Found)
	}

	st := cache.Stats()
	inserts := int(st.Entries + st.Evictions)
	if inserts == 0 {
		t.Fatal("test exercised no cache inserts")
	}
	if got := stageA.count(); got == 0 {
		t.Fatal("search A's observer saw no true evaluations")
	}
	// The pinned contract: B's observer was attached for every insert of the
	// run (B attached before any evaluation of either search and detached
	// only when B itself returned, after A), so it observed each fresh
	// insert exactly once.
	if got := stageB.count(); got != inserts {
		t.Fatalf("search B's observer saw %d of %d fresh inserts — a finishing search detached a concurrent search's fan-out", got, inserts)
	}
}
