package pipeline

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"satbelim/internal/core"
)

// keys returns n distinct cache keys.
func keys(n int) []cacheKey {
	ks := make([]cacheKey, n)
	for i := range ks {
		ks[i] = Options{}.key(fmt.Sprintf("p%d", i), "src")
	}
	return ks
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache(3)
	keys := keys(4)
	builds := make([]*Build, len(keys))
	for i := range builds {
		builds[i] = &Build{Name: fmt.Sprintf("b%d", i)}
	}

	// Fill the cache, then refresh key 0 so key 1 is least recently used.
	c.put(keys[0], builds[0])
	c.put(keys[1], builds[1])
	c.put(keys[2], builds[2])
	if _, ok := c.get(keys[0]); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.put(keys[3], builds[3]) // at capacity: must evict the LRU entry

	if _, ok := c.get(keys[1]); ok {
		t.Error("least-recently-used entry (key 1) survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		b, ok := c.get(keys[i])
		if !ok || b != builds[i] {
			t.Errorf("key %d evicted or replaced, want retained", i)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction / 3 entries", s)
	}
}

// TestCacheHoldsItsBound: NewCache(n) holds n builds, whatever their keys —
// no fewer (it evicts nothing while it has room) and no more.
func TestCacheHoldsItsBound(t *testing.T) {
	for _, n := range []int{1, 3, 12, 20} {
		c := NewCache(n)
		ks := keys(2 * n)
		for i, k := range ks {
			c.put(k, &Build{})
			if s := c.Stats(); s.Entries != min(i+1, n) || s.Evictions != int64(max(0, i+1-n)) {
				t.Fatalf("NewCache(%d) after %d puts: %+v", n, i+1, s)
			}
		}
		for i, k := range ks {
			if _, ok := c.get(k); ok != (i >= n) {
				t.Errorf("NewCache(%d): key %d cached = %t, want the last %d keys only", n, i, ok, n)
			}
		}
	}
}

func TestCacheSingleflightCoalesces(t *testing.T) {
	c := NewCache(0)
	k := Options{}.key("sf", "src")
	b0 := &Build{Name: "sf"}
	winnerIn := make(chan struct{})
	release := make(chan struct{})
	var extraCompiles atomic.Int32

	const followers = 8
	results := make(chan *Build, followers+1)
	go func() {
		b, fromCache, err := c.do(k, func() (*Build, error) {
			close(winnerIn)
			<-release
			return b0, nil
		})
		if err != nil || fromCache {
			t.Errorf("winner: fromCache=%v err=%v", fromCache, err)
		}
		results <- b
	}()
	<-winnerIn

	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, fromCache, err := c.do(k, func() (*Build, error) {
				extraCompiles.Add(1)
				return b0, nil
			})
			if err != nil || !fromCache {
				t.Errorf("follower: fromCache=%v err=%v", fromCache, err)
			}
			results <- b
		}()
	}
	time.Sleep(50 * time.Millisecond) // let followers reach the in-flight wait
	close(release)
	wg.Wait()

	for i := 0; i < followers+1; i++ {
		if b := <-results; b != b0 {
			t.Fatal("coalesced caller got a different build")
		}
	}
	if n := extraCompiles.Load(); n != 0 {
		t.Errorf("%d redundant compiles ran, want 0 (singleflight)", n)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 compile", s.Misses)
	}
	if s.Hits+s.Coalesced != followers {
		t.Errorf("hits(%d)+coalesced(%d) = %d, want %d", s.Hits, s.Coalesced, s.Hits+s.Coalesced, followers)
	}
}

func TestCacheWinnerErrorNotSharedWithFollowers(t *testing.T) {
	c := NewCache(0)
	k := Options{}.key("err", "src")
	errBoom := errors.New("boom")
	winnerIn := make(chan struct{})
	release := make(chan struct{})

	winnerErr := make(chan error, 1)
	go func() {
		_, _, err := c.do(k, func() (*Build, error) {
			close(winnerIn)
			<-release
			return nil, errBoom
		})
		winnerErr <- err
	}()
	<-winnerIn

	followerB := make(chan *Build, 1)
	go func() {
		b, fromCache, err := c.do(k, func() (*Build, error) {
			return &Build{Name: "good"}, nil
		})
		if err != nil {
			t.Errorf("follower after winner error must recompile cleanly: %v", err)
		}
		if fromCache {
			t.Error("follower must not adopt an errored result")
		}
		followerB <- b
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)

	if err := <-winnerErr; !errors.Is(err, errBoom) {
		t.Errorf("winner error = %v, want boom", err)
	}
	if b := <-followerB; b == nil || b.Name != "good" {
		t.Errorf("follower build = %+v, want its own clean compile", b)
	}
	s := c.Stats()
	if s.Misses != 2 || s.Coalesced != 0 {
		t.Errorf("stats = %+v, want 2 misses (error never shared) / 0 coalesced", s)
	}
}

func TestCacheTimeDrivenDegradedNeverStored(t *testing.T) {
	c := NewCache(0)

	// A wall-clock degradation (this request's deadline, not the key's
	// content) must stay private: the next request recompiles.
	k := Options{}.key("timed", "src")
	timed := &Build{Report: &core.ProgramReport{Methods: []*core.MethodReport{
		{Degraded: core.DegradeCancelled},
	}}}
	b, fromCache, err := c.do(k, func() (*Build, error) { return timed, nil })
	if err != nil || fromCache || b != timed {
		t.Fatalf("winner: b=%p fromCache=%v err=%v", b, fromCache, err)
	}
	recompiled := false
	if _, fromCache, _ = c.do(k, func() (*Build, error) {
		recompiled = true
		return &Build{}, nil
	}); !recompiled || fromCache {
		t.Error("time-driven degraded build was cached; second request must recompile")
	}

	// A structural degradation (visit budget — a property of key ×
	// options, deterministic) IS cacheable.
	k2 := Options{}.key("structural", "src")
	vb := &Build{Report: &core.ProgramReport{Methods: []*core.MethodReport{
		{Degraded: core.DegradeVisitBudget},
	}}}
	if _, _, err := c.do(k2, func() (*Build, error) { return vb, nil }); err != nil {
		t.Fatal(err)
	}
	b2, fromCache, err := c.do(k2, func() (*Build, error) {
		t.Error("structurally degraded build must be served from cache")
		return nil, errors.New("unreachable")
	})
	if err != nil || !fromCache || b2 != vb {
		t.Errorf("structural degradation not cached: fromCache=%v err=%v", fromCache, err)
	}
}

// degradeSet renders a report's degradations in a scheduling-independent
// canonical form.
func degradeSet(rep *core.ProgramReport) string {
	var out []string
	for _, m := range rep.Degraded() {
		out = append(out, fmt.Sprintf("%s:%s", m.Method.QualifiedName(), m.Degraded))
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// TestConcurrentDegradedCompilesDeterministic is the concurrent-
// degradation satellite: many simultaneous Compile calls with starved
// budgets against one shared cache must each observe the same
// deterministic Degraded() result as an isolated sequential compile —
// no cross-request state bleed between budget classes or programs.
// Run under -race (the CI test job does).
func TestConcurrentDegradedCompilesDeterministic(t *testing.T) {
	const variants = 4
	srcs := make([]string, variants)
	for v := range srcs {
		srcs[v] = fmt.Sprintf(cacheTestSrc+"\n// variant %d\n", v)
	}
	budgets := []int{6, 1 << 30} // starved vs. effectively unlimited

	optsFor := func(budget int, cache *Cache, noCache bool) Options {
		return Options{
			InlineLimit: 50,
			Workers:     2,
			Analysis:    core.Options{Mode: core.ModeFieldArray, MaxBlockVisits: budget},
			Cache:       cache,
			NoCache:     noCache,
		}
	}

	// Sequential reference: each (variant, budget) compiled in isolation.
	type ref struct {
		degraded string
		totals   [5]int
	}
	refs := map[[2]int]ref{}
	for v := range srcs {
		for bi, budget := range budgets {
			b, err := Compile(fmt.Sprintf("conc%d", v), srcs[v], optsFor(budget, nil, true))
			if err != nil {
				t.Fatal(err)
			}
			r := ref{degraded: degradeSet(b.Report)}
			r.totals[0], r.totals[1], r.totals[2], r.totals[3], r.totals[4] = b.Report.Totals()
			refs[[2]int{v, bi}] = r
		}
	}
	if refs[[2]int{0, 0}].degraded == refs[[2]int{0, 1}].degraded {
		t.Fatal("starved budget did not degrade the workload; test needs a tighter budget")
	}

	shared := NewCache(0)
	const requests = 32
	var wg sync.WaitGroup
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, bi := i%variants, (i/variants)%len(budgets)
			b, err := Compile(fmt.Sprintf("conc%d", v), srcs[v], optsFor(budgets[bi], shared, false))
			if err != nil {
				errs[i] = err
				return
			}
			want := refs[[2]int{v, bi}]
			if got := degradeSet(b.Report); got != want.degraded {
				errs[i] = fmt.Errorf("request %d (variant %d, budget %d): degraded %v, want %v",
					i, v, budgets[bi], got, want.degraded)
				return
			}
			var tot [5]int
			tot[0], tot[1], tot[2], tot[3], tot[4] = b.Report.Totals()
			if tot != want.totals {
				errs[i] = fmt.Errorf("request %d: totals %v, want %v (cross-request bleed?)", i, tot, want.totals)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	s := shared.Stats()
	if s.Misses > int64(variants*len(budgets)) {
		t.Errorf("%d misses for %d distinct keys: cache or singleflight not coalescing", s.Misses, variants*len(budgets))
	}
}
