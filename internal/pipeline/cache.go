package pipeline

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"satbelim/internal/obs"
)

// The build cache memoizes Compile by content: experiments and tools
// recompile the same six workload sources dozens of times across table
// rows, figure sweeps, and differential runs, and the satbd daemon sees
// the same program keys from many tenants at once. Every recompilation of
// identical inputs produces an identical Build (compilation and analysis
// are deterministic), so entries are keyed by source hash × options,
// never by anything ambient, and a hit is exact.
//
// Structure: one LRU under one mutex, held only for a map lookup and a list
// move; every miss takes the singleflight's one lock as well, so splitting
// the LRU would not let more requests proceed at once. On top of it sits a
// singleflight layer: N concurrent compiles of the same key run the compile
// once — the first caller (the "winner") compiles, followers block and
// share the result. Only clean results are shared; a winner whose build
// errored or degraded on wall-clock grounds (deadline, cancellation — conditions of
// that request, not of the key) keeps it private and followers compile
// for themselves, so one request's deadline never bleeds into another's
// result.
//
// Cached Builds share the Program and Report pointers with the original
// (both are treated as immutable after Compile); the Build struct itself
// is copied so per-use metadata (CacheHit, timing fields a caller zeroes)
// stays private to each caller.
//
// The cache is an injectable value: Options.Cache selects the instance,
// nil meaning the process-wide DefaultCache. Tests, embedders, and the
// satbd daemon construct their own with NewCache.

// DefaultCacheEntries bounds DefaultCache; at the limit the cache evicts its
// least-recently-used entry.
const DefaultCacheEntries = 128

// cacheKey identifies a build by everything that can influence its
// output. Workers and Runtime are deliberately absent: results are
// deterministic for any worker count and VM configuration cannot influence
// a compile, so builds differing only in those share an entry.
type cacheKey struct {
	name        string
	srcHash     [32]byte
	inlineLimit int
	analysis    string
}

type cacheEntry struct {
	key cacheKey
	b   *Build
}

// flightCall is one in-flight compilation for singleflight coalescing.
type flightCall struct {
	done chan struct{}
	// b is set before done closes; shared reports whether followers may
	// adopt it (false for errors and wall-clock degradations, which are
	// private to the winner's request).
	b      *Build
	shared bool
}

// Cache is a content-addressed build cache instance: LRU storage plus
// singleflight compile coalescing. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used

	flightMu sync.Mutex
	flight   map[cacheKey]*flightCall

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	coalesced atomic.Int64
}

// NewCache returns an empty cache that holds up to maxEntries builds (<= 0
// means DefaultCacheEntries).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &Cache{max: maxEntries, entries: map[cacheKey]*list.Element{}, lru: list.New(),
		flight: map[cacheKey]*flightCall{}}
}

// DefaultCache is the process-wide build cache used when Options.Cache
// is nil. One-shot CLIs share it; the satbd daemon injects its own
// instance so daemon state never rides on a package global.
var DefaultCache = NewCache(DefaultCacheEntries)

// CacheStats reports build-cache effectiveness. Hits counts servings from
// the LRU, Coalesced counts compiles avoided by singleflight (a follower
// adopting an in-flight winner's result), Misses counts actual compiles
// entered through the cache, and Evictions counts LRU displacements.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced"`
}

// Stats returns a snapshot of this cache's counters.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Coalesced: c.coalesced.Load(),
	}
	c.mu.Lock()
	s.Entries = len(c.entries)
	c.mu.Unlock()
	return s
}

// Clear empties the cache and resets its counters. In-flight compiles
// are unaffected (they complete and store into the cleared cache).
func (c *Cache) Clear() {
	c.mu.Lock()
	c.entries = map[cacheKey]*list.Element{}
	c.lru = list.New()
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.coalesced.Store(0)
}

// cacheInstance resolves the cache these Options address.
func (o Options) cacheInstance() *Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return DefaultCache
}

// cacheable reports whether a build under these options may be cached:
// caller-supplied analysis summaries are an out-of-band input the key
// cannot capture, so such builds always compile fresh.
func (o Options) cacheable() bool {
	return !o.NoCache && o.Analysis.Summaries == nil
}

// key derives the cache key for one compilation.
func (o Options) key(name, source string) cacheKey {
	a := o.Analysis
	a.Summaries = nil
	return cacheKey{
		name:        name,
		srcHash:     sha256.Sum256([]byte(source)),
		inlineLimit: o.InlineLimit,
		analysis:    fmt.Sprintf("%+v", a),
	}
}

// get returns the cached build for a key, refreshing its recency.
func (c *Cache) get(k cacheKey) (*Build, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).b, true
}

// put stores a build, evicting the least-recently-used entry at capacity.
func (c *Cache) put(k cacheKey, b *Build) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
		obs.Count("pipeline.cache.evictions", 1)
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, b: b})
}

// do runs one cacheable compilation with hit lookup and singleflight
// coalescing. It returns the build, whether it came from another request
// (a cache hit or a coalesced in-flight result — the caller must then
// take a private copy), and the compile error.
//
// Error and wall-clock-degraded results are never shared: the winner
// returns its own outcome and followers loop around to compile (or
// coalesce on a newer winner) themselves. The loop terminates because a
// follower only re-enters it after some winner completed, and fn itself
// observes the caller's context.
func (c *Cache) do(k cacheKey, fn func() (*Build, error)) (b *Build, fromCache bool, err error) {
	for {
		if b, ok := c.get(k); ok {
			c.hits.Add(1)
			obs.Count("pipeline.cache.hits", 1)
			obs.Instant("main", "cache", "build-cache-hit")
			return b, true, nil
		}
		c.flightMu.Lock()
		if call, ok := c.flight[k]; ok {
			c.flightMu.Unlock()
			<-call.done
			if call.shared {
				c.coalesced.Add(1)
				obs.Count("pipeline.cache.coalesced", 1)
				obs.Instant("main", "cache", "build-cache-coalesced")
				return call.b, true, nil
			}
			continue
		}
		call := &flightCall{done: make(chan struct{})}
		c.flight[k] = call
		c.flightMu.Unlock()

		c.misses.Add(1)
		obs.Count("pipeline.cache.misses", 1)
		obs.Instant("main", "cache", "build-cache-miss")
		b, err := fn()
		call.b = b
		call.shared = err == nil && shareable(b)
		if call.shared {
			c.put(k, b)
		}
		c.flightMu.Lock()
		delete(c.flight, k)
		c.flightMu.Unlock()
		close(call.done)
		return b, false, err
	}
}

// shareable reports whether a successful build may be stored and handed
// to coalesced followers: a build containing wall-clock degradations
// (deadline, cancellation) reflects the winner request's time budget, not
// the key, so it stays private and is never cached.
func shareable(b *Build) bool {
	if b.Report == nil {
		return true
	}
	for _, m := range b.Report.Degraded() {
		if m.Degraded.TimeDriven() {
			return false
		}
	}
	return true
}
