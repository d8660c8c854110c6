package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// evalCacheShards is the fixed shard count: scoring fan-out is at most a few
// dozen goroutines, so 16 mutexes keep contention negligible without a
// per-entry locking scheme.
const evalCacheShards = 16

// EvalCache memoizes true-ratio evaluations keyed by a quantized demand
// vector, shared across restarts (and searches): lock-step batches and
// near-converged restarts repeatedly score coincident points, and each miss
// costs an optimal-MLU LP solve. The cache is sharded for concurrency and
// bounded per shard; eviction drops an arbitrary resident entry (Go map
// iteration order), which is cheap and good enough for a memo table whose
// hit pattern is dominated by exact re-visits.
//
// Keying quantizes every coordinate to a multiple of quantum before hashing,
// so points within quantum/2 of each other share an entry. A second
// independent hash is stored as a signature to reject bucket collisions;
// colliding signatures (~2⁻⁶⁴ per pair) would return a stale value, the
// standard memo-cache trade.
//
// Each point is scored once: the first miss on a (key, signature) registers
// an in-flight call, and concurrent misses on the same point wait for it and
// take its result as a hit instead of calling the oracle again. A waiter
// whose leader fails, panics or is cancelled scores the point itself under
// its own context (jobs sharing one cache have different contexts); a
// waiter whose own context ends stops waiting.
type EvalCache struct {
	quantum  float64
	perShard int
	shards   [evalCacheShards]evalShard

	hits, misses, evictions, bypasses atomic.Int64
}

type evalShard struct {
	mu       sync.Mutex
	m        map[uint64]evalEntry
	inflight map[uint64]*evalCall
}

// evalCall is one in-flight oracle call. Its leader sets the result fields
// (ok only on success) before closing done; waiters read them after done.
type evalCall struct {
	sig             uint64
	done            chan struct{}
	ok              bool
	ratio, sys, opt float64
}

type evalEntry struct {
	sig             uint64
	ratio, sys, opt float64
}

// NewEvalCache builds a cache holding at most capacity entries (0 means
// 1<<16) keyed at the given quantization step (0 means 1e-9, i.e. exact
// re-visits only for demand values of order one).
func NewEvalCache(capacity int, quantum float64) *EvalCache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	if quantum <= 0 {
		quantum = 1e-9
	}
	c := &EvalCache{
		quantum:  quantum,
		perShard: (capacity + evalCacheShards - 1) / evalCacheShards,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]evalEntry)
		c.shards[i].inflight = make(map[uint64]*evalCall)
	}
	return c
}

// EvalCacheStats is a snapshot of the cache's counters. Bypasses counts
// lookups that skipped the cache entirely because the point could not be
// keyed deterministically (NaN/±Inf coordinates).
type EvalCacheStats struct {
	Hits, Misses, Evictions, Bypasses, Entries int64
}

// Sub returns s - o field-wise (Entries is a level, not a counter, and is
// carried over from s).
func (s EvalCacheStats) Sub(o EvalCacheStats) EvalCacheStats {
	return EvalCacheStats{
		Hits:      s.Hits - o.Hits,
		Misses:    s.Misses - o.Misses,
		Evictions: s.Evictions - o.Evictions,
		Bypasses:  s.Bypasses - o.Bypasses,
		Entries:   s.Entries,
	}
}

// Stats returns the current counters. Safe to call concurrently. A lookup
// that waited for another caller's in-flight call of the same point counts
// as a hit when it got that result, and as a miss when it had to score the
// point itself; so Misses is the number of oracle calls made through the
// cache.
func (c *EvalCache) Stats() EvalCacheStats {
	var n int64
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += int64(len(c.shards[i].m))
		c.shards[i].mu.Unlock()
	}
	return EvalCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bypasses:  c.bypasses.Load(),
		Entries:   n,
	}
}

// keys hashes the quantized vector with two independent FNV-1a streams: the
// first selects the bucket, the second is the stored collision signature.
// ok is false when the vector cannot be keyed deterministically — any NaN or
// ±Inf coordinate — in which case the caller must bypass the cache: Go's
// float→int conversion is implementation-defined outside the representable
// range, so a NaN demand would otherwise hash to a platform-dependent key.
// Finite coordinates whose quantized magnitude overflows int64 saturate to
// the range limit instead, keeping the key deterministic everywhere.
func (c *EvalCache) keys(x []float64) (key, sig uint64, ok bool) {
	const (
		offset1 = 14695981039346656037
		offset2 = 0x9e3779b97f4a7c15 // different seed, same prime: independent stream
		prime   = 1099511628211
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	inv := 1 / c.quantum
	for _, v := range x {
		// NaN and ±Inf coordinates cannot be keyed; the caller bypasses the
		// cache. Checked on the raw coordinate: a finite v whose scaled
		// magnitude overflows to Inf below is still a legitimate (huge)
		// demand and saturates instead.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, false
		}
		qf := math.Round(v * inv)
		// Saturate instead of converting out-of-range values: float64 holds
		// integers far past 2^63, and the conversion there is
		// implementation-defined. math.MaxInt64/MinInt64 convert to ±2^63
		// exactly, so >= / <= (which also catch an overflowed ±Inf product)
		// cover every unrepresentable magnitude.
		var qi int64
		switch {
		case qf >= math.MaxInt64:
			qi = math.MaxInt64
		case qf <= math.MinInt64:
			qi = math.MinInt64
		default:
			qi = int64(qf)
		}
		q := uint64(qi)
		for shift := 0; shift < 64; shift += 8 {
			b := uint64(byte(q >> shift))
			h1 = (h1 ^ b) * prime
			h2 = (h2 ^ (b + 0x51)) * prime
		}
	}
	return h1, h2, true
}

// lookup returns the cached entry for (key, sig) (hit), or else the
// in-flight call scoring that point. When there is none it registers a new
// call and returns it with leader set: the caller must score the point and
// then release the call with finish, also on a panic. A signature that
// collides with another point's in-flight call gets neither: call is nil
// and the caller scores the point without waiting.
func (c *EvalCache) lookup(key, sig uint64) (e evalEntry, hit bool, call *evalCall, leader bool) {
	sh := &c.shards[key%evalCacheShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, found := sh.m[key]; found && e.sig == sig {
		c.hits.Add(1)
		return e, true, nil, false
	}
	if call, found := sh.inflight[key]; found {
		if call.sig == sig {
			return evalEntry{}, false, call, false
		}
		c.misses.Add(1)
		return evalEntry{}, false, nil, false
	}
	call = &evalCall{sig: sig, done: make(chan struct{})}
	sh.inflight[key] = call
	c.misses.Add(1)
	return evalEntry{}, false, call, true
}

// finish unregisters a leader's call and wakes its waiters.
func (c *EvalCache) finish(key uint64, call *evalCall) {
	sh := &c.shards[key%evalCacheShards]
	sh.mu.Lock()
	if sh.inflight[key] == call {
		delete(sh.inflight, key)
	}
	sh.mu.Unlock()
	close(call.done)
}

func (c *EvalCache) put(key, sig uint64, ratio, sys, opt float64) {
	sh := &c.shards[key%evalCacheShards]
	sh.mu.Lock()
	if _, exists := sh.m[key]; !exists && len(sh.m) >= c.perShard {
		for k := range sh.m {
			delete(sh.m, k) // evict an arbitrary entry to stay bounded
			c.evictions.Add(1)
			break
		}
	}
	sh.m[key] = evalEntry{sig: sig, ratio: ratio, sys: sys, opt: opt}
	sh.mu.Unlock()
}

// RatioCached scores x like RatioCtx but through the memo cache when one is
// configured (nil cache falls back to a plain scoring call). cached reports
// whether the result was served from memory. External drivers and the
// benchmarks use this; the search engines go through the same path.
func (a *AttackTarget) RatioCached(ctx context.Context, cache *EvalCache, x []float64) (ratio, sys, opt float64, cached bool, err error) {
	return a.ratioCachedCtx(ctx, cache, x)
}

// ratioCachedCtx scores x like RatioCtx but through the memo cache when one
// is configured. cached reports whether the result was served from memory
// (so callers skip their eval/LP accounting); errors are never cached.
func (a *AttackTarget) ratioCachedCtx(ctx context.Context, cache *EvalCache, x []float64) (ratio, sys, opt float64, cached bool, err error) {
	if cache == nil {
		ratio, sys, opt, err = a.RatioCtx(ctx, x)
		return ratio, sys, opt, false, err
	}
	key, sig, keyable := cache.keys(x)
	if !keyable {
		// NaN/±Inf coordinates have no deterministic key: score fresh and
		// never insert, so the cache stays platform-independent.
		cache.bypasses.Add(1)
		ratio, sys, opt, err = a.RatioCtx(ctx, x)
		return ratio, sys, opt, false, err
	}
	e, hit, call, leader := cache.lookup(key, sig)
	switch {
	case hit:
		return e.ratio, e.sys, e.opt, true, nil
	case leader:
		ratio, sys, opt, err = a.leadCall(ctx, cache, x, key, sig, call)
		return ratio, sys, opt, false, err
	case call != nil:
		select {
		case <-call.done:
		case <-ctx.Done():
			return 0, 0, 0, false, ctx.Err()
		}
		if call.ok {
			cache.hits.Add(1)
			return call.ratio, call.sys, call.opt, true, nil
		}
		// The leader failed, panicked or was cancelled: score the point
		// under this caller's own context.
		cache.misses.Add(1)
	}
	ratio, sys, opt, err = a.RatioCtx(ctx, x)
	if err == nil {
		cache.put(key, sig, ratio, sys, opt)
	}
	return ratio, sys, opt, false, err
}

// leadCall scores x for the in-flight call it leads, caches a success, and
// releases the call's waiters on every return, a panic included.
func (a *AttackTarget) leadCall(ctx context.Context, cache *EvalCache, x []float64, key, sig uint64, call *evalCall) (ratio, sys, opt float64, err error) {
	defer cache.finish(key, call)
	ratio, sys, opt, err = a.RatioCtx(ctx, x)
	if err == nil {
		cache.put(key, sig, ratio, sys, opt)
		call.ratio, call.sys, call.opt, call.ok = ratio, sys, opt, true
	}
	return ratio, sys, opt, err
}
