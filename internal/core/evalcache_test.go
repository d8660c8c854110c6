package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingTarget builds an AttackTarget whose scoring is a cheap
// RatioOverride counting invocations, so cache hits are observable as
// suppressed calls.
func countingTarget(calls *int) *AttackTarget {
	return &AttackTarget{
		InputDim:  3,
		DemandLen: 3,
		MaxDemand: 1,
		RatioOverride: func(x []float64) (float64, float64, float64, error) {
			*calls++
			s := 0.0
			for _, v := range x {
				s += v
			}
			return 1 + s, 2 + s, 3 + s, nil
		},
	}
}

func TestEvalCacheHitMissRoundTrip(t *testing.T) {
	calls := 0
	target := countingTarget(&calls)
	cache := NewEvalCache(64, 1e-9)
	ctx := context.Background()

	x := []float64{0.25, 0.5, 0.75}
	r1, s1, o1, cached, err := target.ratioCachedCtx(ctx, cache, x)
	if err != nil || cached {
		t.Fatalf("first eval: cached=%v err=%v, want miss", cached, err)
	}
	r2, s2, o2, cached, err := target.ratioCachedCtx(ctx, cache, x)
	if err != nil || !cached {
		t.Fatalf("second eval: cached=%v err=%v, want hit", cached, err)
	}
	if r1 != r2 || s1 != s2 || o1 != o2 {
		t.Fatalf("cached values drifted: (%v %v %v) != (%v %v %v)", r2, s2, o2, r1, s1, o1)
	}
	if calls != 1 {
		t.Fatalf("underlying scorer ran %d times, want 1", calls)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestEvalCacheQuantization(t *testing.T) {
	calls := 0
	target := countingTarget(&calls)
	cache := NewEvalCache(64, 1e-3)
	ctx := context.Background()

	a := []float64{0.1000, 0.2, 0.3}
	b := []float64{0.10004, 0.2, 0.3} // within quantum/2 of a → same key
	c := []float64{0.1020, 0.2, 0.3}  // two quanta away → distinct key

	if _, _, _, cached, _ := target.ratioCachedCtx(ctx, cache, a); cached {
		t.Fatal("a should miss")
	}
	if _, _, _, cached, _ := target.ratioCachedCtx(ctx, cache, b); !cached {
		t.Fatal("b quantizes onto a and should hit")
	}
	if _, _, _, cached, _ := target.ratioCachedCtx(ctx, cache, c); cached {
		t.Fatal("c is outside the quantum and should miss")
	}
	if calls != 2 {
		t.Fatalf("underlying scorer ran %d times, want 2", calls)
	}
}

func TestEvalCacheBoundedEviction(t *testing.T) {
	calls := 0
	target := countingTarget(&calls)
	const capacity = 32
	cache := NewEvalCache(capacity, 1e-9)
	ctx := context.Background()

	// perShard rounds capacity up to shard granularity; the bound the cache
	// promises is perShard entries in each of the 16 shards.
	bound := int64(((capacity + evalCacheShards - 1) / evalCacheShards) * evalCacheShards)
	for i := 0; i < 4*capacity; i++ {
		x := []float64{float64(i), float64(2 * i), float64(3 * i)}
		if _, _, _, _, err := target.ratioCachedCtx(ctx, cache, x); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Entries > bound {
		t.Fatalf("cache holds %d entries, bound %d", st.Entries, bound)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions after overfilling the cache")
	}
	if st.Misses != int64(4*capacity) {
		t.Fatalf("misses = %d, want %d (all points distinct)", st.Misses, 4*capacity)
	}
}

func TestEvalCacheNeverCachesErrors(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	target := &AttackTarget{
		InputDim:  1,
		DemandLen: 1,
		MaxDemand: 1,
		RatioOverride: func(x []float64) (float64, float64, float64, error) {
			calls++
			return 0, 0, 0, boom
		},
	}
	cache := NewEvalCache(8, 1e-9)
	ctx := context.Background()
	x := []float64{1}
	for i := 0; i < 3; i++ {
		if _, _, _, cached, err := target.ratioCachedCtx(ctx, cache, x); err != boom || cached {
			t.Fatalf("eval %d: cached=%v err=%v, want fresh boom", i, cached, err)
		}
	}
	if calls != 3 {
		t.Fatalf("scorer ran %d times, want 3 (errors must not be cached)", calls)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("error result was cached: %+v", st)
	}
}

func TestEvalCacheNilPassthrough(t *testing.T) {
	calls := 0
	target := countingTarget(&calls)
	ctx := context.Background()
	x := []float64{0.1, 0.2, 0.3}
	for i := 0; i < 2; i++ {
		if _, _, _, cached, err := target.ratioCachedCtx(ctx, nil, x); cached || err != nil {
			t.Fatalf("nil cache: cached=%v err=%v", cached, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache should always score: calls = %d", calls)
	}
}

func TestEvalCacheStatsSub(t *testing.T) {
	a := EvalCacheStats{Hits: 10, Misses: 7, Evictions: 3, Entries: 5}
	b := EvalCacheStats{Hits: 4, Misses: 2, Evictions: 1, Entries: 9}
	d := a.Sub(b)
	if d.Hits != 6 || d.Misses != 5 || d.Evictions != 2 {
		t.Fatalf("Sub counters wrong: %+v", d)
	}
	if d.Entries != 5 {
		t.Fatalf("Entries is a level and must carry from the receiver: %+v", d)
	}
}

// TestEvalCacheConcurrent hammers one cache from many goroutines over a
// small key set; run with -race this checks the sharded locking.
func TestEvalCacheConcurrent(t *testing.T) {
	target := &AttackTarget{
		InputDim:  2,
		DemandLen: 2,
		MaxDemand: 1,
		RatioOverride: func(x []float64) (float64, float64, float64, error) {
			return x[0] + x[1], x[0], x[1], nil
		},
	}
	cache := NewEvalCache(128, 1e-9)
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := float64(i % 40)
				r, _, _, _, err := target.ratioCachedCtx(ctx, cache, []float64{k, 2 * k})
				if err != nil || r != 3*k {
					select {
					case errCh <- errors.New("bad cached value"):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatal("expected concurrent hits")
	}
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("lost lookups: hits+misses = %d, want %d", st.Hits+st.Misses, 8*500)
	}
}

// TestEvalCacheNaNInfBypass is the regression for the implementation-defined
// float->int conversion in key hashing: NaN or infinite demand coordinates
// must bypass the cache (fresh scoring, no insert, no platform-dependent
// key), while finite vectors keep caching normally around them.
func TestEvalCacheNaNInfBypass(t *testing.T) {
	calls := 0
	target := countingTarget(&calls)
	cache := NewEvalCache(64, 1e-9)
	ctx := context.Background()

	for i, x := range [][]float64{
		{math.NaN(), 0.5, 0.75},
		{0.25, math.Inf(1), 0.75},
		{0.25, 0.5, math.Inf(-1)},
	} {
		for rep := 0; rep < 2; rep++ {
			_, _, _, cached, err := target.ratioCachedCtx(ctx, cache, x)
			if err != nil {
				t.Fatalf("vector %d rep %d: %v", i, rep, err)
			}
			if cached {
				t.Fatalf("vector %d rep %d: non-finite point served from cache", i, rep)
			}
		}
	}
	if calls != 6 {
		t.Fatalf("scorer ran %d times, want 6 (every non-finite eval fresh)", calls)
	}
	st := cache.Stats()
	if st.Entries != 0 {
		t.Fatalf("non-finite point was inserted: %+v", st)
	}
	if st.Bypasses != 6 {
		t.Fatalf("bypasses = %d, want 6", st.Bypasses)
	}
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("bypassed lookups leaked into hit/miss accounting: %+v", st)
	}

	// A NaN-free vector still caches.
	x := []float64{0.25, 0.5, 0.75}
	if _, _, _, cached, _ := target.ratioCachedCtx(ctx, cache, x); cached {
		t.Fatal("finite point should miss first")
	}
	if _, _, _, cached, _ := target.ratioCachedCtx(ctx, cache, x); !cached {
		t.Fatal("finite point should hit second")
	}
}

// TestEvalCacheKeySaturation pins the overflow clamp: finite coordinates
// whose quantized magnitude exceeds int64 saturate to the range limit, so
// the key is deterministic (and equal for any two such magnitudes, which is
// an acceptable collision) rather than implementation-defined.
func TestEvalCacheKeySaturation(t *testing.T) {
	cache := NewEvalCache(64, 1e-9) // inv = 1e9: 1e300 overflows int64 by far
	kA, sA, ok := cache.keys([]float64{1e300})
	if !ok {
		t.Fatal("finite overflow must stay keyable (saturated), not bypass")
	}
	kB, sB, ok := cache.keys([]float64{1e301})
	if !ok {
		t.Fatal("finite overflow must stay keyable (saturated), not bypass")
	}
	if kA != kB || sA != sB {
		t.Fatal("saturated keys must be deterministic and equal at the clamp")
	}
	kneg, _, ok := cache.keys([]float64{-1e300})
	if !ok {
		t.Fatal("negative overflow must stay keyable")
	}
	if kneg == kA {
		t.Fatal("positive and negative saturation must not collide")
	}
	// The exact int64 boundary converts cleanly.
	if _, _, ok := cache.keys([]float64{float64(math.MaxInt64) * 1e-9}); !ok {
		t.Fatal("boundary magnitude must be keyable")
	}
}

// blockingOracle is a RatioOverride whose calls are counted and block until
// release is closed. The first call runs first(x), which may fail or panic;
// later calls succeed.
type blockingOracle struct {
	calls   atomic.Int64
	entered chan struct{} // closed when the first call starts
	release chan struct{}
	first   func(x []float64) (float64, float64, float64, error)
}

func newBlockingOracle(first func(x []float64) (float64, float64, float64, error)) *blockingOracle {
	return &blockingOracle{entered: make(chan struct{}), release: make(chan struct{}), first: first}
}

func (o *blockingOracle) target() *AttackTarget {
	return &AttackTarget{
		InputDim: 2, DemandLen: 2, MaxDemand: 1,
		RatioOverride: func(x []float64) (float64, float64, float64, error) {
			n := o.calls.Add(1)
			if n == 1 {
				close(o.entered)
			}
			<-o.release
			if n == 1 && o.first != nil {
				return o.first(x)
			}
			return x[0] + x[1], x[0], x[1], nil
		},
	}
}

// waitCallers waits until every caller has announced itself, then gives
// them a grace period to reach the cache before the oracle is released.
// The assertions below hold for any interleaving; the grace period only
// makes the callers overlap the in-flight call, which is the case they
// cover (without in-flight calls, each overlapping caller would score the
// point itself).
func waitCallers(t *testing.T, ready *sync.WaitGroup) {
	t.Helper()
	ready.Wait()
	time.Sleep(20 * time.Millisecond)
}

// TestEvalCacheScoresConcurrentMissesOnce releases N goroutines together
// on one point: exactly one oracle call happens and every caller gets its
// result, the rest as hits.
func TestEvalCacheScoresConcurrentMissesOnce(t *testing.T) {
	const n = 8
	o := newBlockingOracle(nil)
	target := o.target()
	cache := NewEvalCache(64, 1e-9)
	start := make(chan struct{})
	var ready, done sync.WaitGroup
	var cachedN atomic.Int64
	for g := 0; g < n; g++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			<-start
			ready.Done()
			r, _, _, cached, err := target.ratioCachedCtx(context.Background(), cache, []float64{1, 2})
			if err != nil || r != 3 {
				t.Errorf("caller got ratio %v, err %v; want 3", r, err)
			}
			if cached {
				cachedN.Add(1)
			}
		}()
	}
	close(start)
	<-o.entered
	waitCallers(t, &ready)
	close(o.release)
	done.Wait()
	if c := o.calls.Load(); c != 1 {
		t.Fatalf("oracle called %d times for one point, want 1", c)
	}
	st := cache.Stats()
	if cachedN.Load() != n-1 || st.Hits != n-1 || st.Misses != 1 {
		t.Fatalf("cached results %d, stats %+v; want %d hits and 1 miss", cachedN.Load(), st, n-1)
	}
}

// TestEvalCacheFailedLeaderReleasesWaiters makes the in-flight call fail,
// by an error and by a panic: no waiter hangs, each scores the point itself
// and gets the right value, and the point ends up cached.
func TestEvalCacheFailedLeaderReleasesWaiters(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			const n = 4
			o := newBlockingOracle(func(x []float64) (float64, float64, float64, error) {
				if mode == "panic" {
					panic("leader oracle panics")
				}
				return 0, 0, 0, errors.New("leader oracle fails")
			})
			target := o.target()
			cache := NewEvalCache(64, 1e-9)
			x := []float64{1, 2}
			leaderDone := make(chan struct{})
			go func() {
				defer close(leaderDone)
				defer func() { _ = recover() }() // the search engines contain oracle panics the same way
				if _, _, _, _, err := target.ratioCachedCtx(context.Background(), cache, x); err == nil {
					t.Error("failing leader reported success")
				}
			}()
			<-o.entered
			var ready, done sync.WaitGroup
			for g := 0; g < n; g++ {
				ready.Add(1)
				done.Add(1)
				go func() {
					defer done.Done()
					ready.Done()
					r, _, _, _, err := target.ratioCachedCtx(context.Background(), cache, x)
					if err != nil || r != 3 {
						t.Errorf("waiter got ratio %v, err %v; want 3", r, err)
					}
				}()
			}
			waitCallers(t, &ready)
			close(o.release)
			<-leaderDone
			done.Wait()
			if c := o.calls.Load(); c < 2 || c > n+1 {
				t.Fatalf("oracle called %d times, want between 2 and %d", c, n+1)
			}
			k, sig, _ := cache.keys(x)
			if _, hit, _, _ := cache.lookup(k, sig); !hit {
				t.Fatal("a waiter's own score was not cached")
			}
		})
	}
}

// TestEvalCacheCancelledWaiterReturns cancels a caller waiting on another
// caller's in-flight call: it returns its context's error at once, while
// the leader is still blocked in the oracle.
func TestEvalCacheCancelledWaiterReturns(t *testing.T) {
	o := newBlockingOracle(nil)
	target := o.target()
	cache := NewEvalCache(64, 1e-9)
	x := []float64{1, 2}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if r, _, _, _, err := target.ratioCachedCtx(context.Background(), cache, x); err != nil || r != 3 {
			t.Errorf("leader got ratio %v, err %v; want 3", r, err)
		}
	}()
	<-o.entered
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, _, _, err := target.ratioCachedCtx(ctx, cache, x)
		waiterDone <- err
	}()
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter still waiting on the in-flight call")
	}
	close(o.release)
	<-leaderDone
	if c := o.calls.Load(); c != 1 {
		t.Fatalf("oracle called %d times, want 1", c)
	}
}
