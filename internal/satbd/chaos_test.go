package satbd

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// injector is the chaos tests' fault source, installed as a Server's
// hook. At each site the daemon names it stalls with probability stall
// (sleeping for delay: a stuck worker or a slow stage) and panics with
// probability panics. Its draws come from one seeded source, so a
// single-threaded sequence repeats; under concurrency their interleaving
// depends on scheduling, and the tests assert invariants, never where a
// fault landed.
type injector struct {
	stall  float64
	delay  time.Duration
	panics float64

	mu    sync.Mutex
	rng   *rand.Rand
	fired map[string]int
}

func newInjector(seed int64, stall float64, delay time.Duration, panics float64) *injector {
	return &injector{stall: stall, delay: delay, panics: panics,
		rng: rand.New(rand.NewSource(seed)), fired: map[string]int{}}
}

// at is the Server hook.
func (in *injector) at(site string) {
	in.mu.Lock()
	stall, panics := in.rng.Float64() < in.stall, in.rng.Float64() < in.panics
	if stall {
		in.fired["stall:"+site]++
	}
	if panics {
		in.fired["panic:"+site]++
	}
	in.mu.Unlock()
	if stall {
		time.Sleep(in.delay)
	}
	if panics {
		panic("injected panic at " + site)
	}
}

// firedCounts returns a copy of the per-site fired counts and their sum.
func (in *injector) firedCounts() (map[string]int, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	out, total := make(map[string]int, len(in.fired)), 0
	for k, n := range in.fired {
		out[k] = n
		total += n
	}
	return out, total
}

// checkGoroutines asserts the goroutine count returns to (near) its
// baseline after a load run — a leaked per-request goroutine would grow
// the count by hundreds here.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+5 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosLoad is the chaos acceptance run: a progen-driven storm
// against a daemon whose workers stall and panic at random before they
// compile or run, and whose build cache holds 8 entries, so that a
// repeated program usually misses after an eviction and is recompiled.
// The pass condition is the daemon's whole contract: zero crashes, zero
// schema-invalid responses, zero silently-wrong results (every /run
// output re-executed locally and compared), every degradation flagged,
// overload shed with 429, deadline overruns reported as timeouts, and
// no goroutine leaks afterwards.
func TestChaosLoad(t *testing.T) {
	programs := 1000
	if testing.Short() {
		programs = 120
	}
	baseline := runtime.NumGoroutine()

	inj := newInjector(7, 0.1, 2*time.Millisecond, 0.03)
	s, ts := newHookedServer(t, Config{Workers: 4, QueueDepth: 16, CacheEntries: 8}, inj.at)

	load, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:       ts.URL,
		Programs:      programs,
		Concurrency:   8,
		Seed:          42,
		VerifyOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range load.Invalid {
		t.Errorf("contract violation: %s", v)
	}
	if load.Sent != programs {
		t.Errorf("sent %d of %d requests", load.Sent, programs)
	}
	total := 0
	for _, n := range load.ByOutcome {
		total += n
	}
	if total != programs {
		t.Errorf("outcome counts sum to %d, want %d: %v", total, programs, load.ByOutcome)
	}
	if load.ByOutcome[OutcomeOK] == 0 {
		t.Error("no request succeeded under faults; the daemon degraded to uselessness")
	}
	if load.OutputsVerified == 0 {
		t.Error("no outputs were verified; the silently-wrong check did not run")
	}
	if lat, found := load.Latency[OutcomeOK]; !found {
		t.Error("load report has no latency summary for the ok class")
	} else if lat.Count != load.ByOutcome[OutcomeOK] ||
		lat.P50NS <= 0 || lat.P95NS < lat.P50NS || lat.P99NS < lat.P95NS || lat.MaxNS < lat.P99NS {
		t.Errorf("ok latency summary malformed: %+v", lat)
	}
	fired, nFired := inj.firedCounts()
	if nFired == 0 {
		t.Error("no fault fired; the chaos run exercised nothing")
	}
	// RunLoad requests each distinct program about twice: more misses
	// than distinct programs means evicted builds were compiled again.
	cs := s.Cache().Stats()
	if cs.Evictions == 0 || cs.Misses <= int64(programs/2) {
		t.Errorf("the storm never recompiled an evicted build: %+v", cs)
	}
	st := s.Stats()
	if st.Requests < int64(programs) {
		t.Errorf("daemon saw %d requests, want >= %d", st.Requests, programs)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("daemon not drained: %+v", st)
	}
	t.Logf("chaos: %d requests, outcomes %v, faults %v, cache %+v",
		programs, load.ByOutcome, fired, cs)

	ts.Close()
	checkGoroutines(t, baseline)
}

// TestChaosTightDeadlines: every request carries a deadline shorter
// than most pipelines under fault-induced stalls. Deadline-exceeded
// requests must be shed at admission (429) or reported as timeouts
// (504) — never as a 200 carrying a partial result.
func TestChaosTightDeadlines(t *testing.T) {
	programs := 200
	if testing.Short() {
		programs = 60
	}
	baseline := runtime.NumGoroutine()

	inj := newInjector(11, 0.5, 30*time.Millisecond, 0)
	_, ts := newHookedServer(t, Config{Workers: 2, QueueDepth: 4}, inj.at)

	load, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:       ts.URL,
		Programs:      programs,
		Concurrency:   8,
		Seed:          99,
		DeadlineMS:    20,
		VerifyOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range load.Invalid {
		t.Errorf("contract violation: %s", v)
	}
	if load.ByOutcome[OutcomeTimeout]+load.ByOutcome[OutcomeShed] == 0 {
		t.Errorf("tight deadlines produced no timeouts or sheds: %v", load.ByOutcome)
	}
	t.Logf("tight deadlines: outcomes %v", load.ByOutcome)

	ts.Close()
	checkGoroutines(t, baseline)
}
