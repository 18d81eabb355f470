// Package faultinject provides seeded, off-by-default fault-injection
// hooks for the chaos testing of long-running services (cmd/satbd). An
// Injector owns a deterministic PRNG and fires four fault families at
// configured probabilities: slow stages (added latency on a pipeline
// stage), cache failures (the build cache pretends the entry is gone),
// worker stalls (a request-lane worker sleeps mid-request),
// and spurious panics (a request handler panics at a hook point).
//
// Everything is opt-in: the zero Config fires nothing, and every method
// is safe on a nil *Injector (one nil check, no locking), so production
// paths carry the hooks at zero cost. Fault decisions are drawn from one
// seeded source, so a single-threaded fault sequence is reproducible;
// under concurrency the interleaving of draws is scheduling-dependent,
// but the chaos suites assert invariants (availability, schema validity),
// never exact fault placement.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config sets the per-family fault probabilities (0 disables a family)
// and the latency each latency-family injects when it fires.
type Config struct {
	// Seed seeds the injector's PRNG (same seed, same single-threaded
	// fault sequence).
	Seed int64
	// SlowStage is the probability that a SlowStage hook sleeps for
	// SlowStageDelay.
	SlowStage      float64
	SlowStageDelay time.Duration
	// CacheFail is the probability that a build-cache operation fails (a
	// get misses, a put is dropped).
	CacheFail float64
	// Panic is the probability that a MaybePanic hook panics.
	Panic float64
	// Stall is the probability that a Stall hook sleeps for StallDelay.
	Stall      float64
	StallDelay time.Duration
}

// Enabled reports whether any fault family has a nonzero probability.
func (c Config) Enabled() bool {
	return c.SlowStage > 0 || c.CacheFail > 0 || c.Panic > 0 || c.Stall > 0
}

// ParseSpec parses a fault specification of the form
//
//	slow=0.1:5ms,cachefail=0.2,panic=0.05,stall=0.1:10ms,seed=42
//
// Families not mentioned stay off. The :duration suffix (slow and stall
// only) sets the injected latency; it defaults to 1ms.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{SlowStageDelay: time.Millisecond, StallDelay: time.Millisecond}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: bad spec element %q (want key=value)", part)
		}
		prob, dur, err := parseValue(v)
		if err != nil {
			return cfg, fmt.Errorf("faultinject: %s: %w", k, err)
		}
		if k != "seed" && (prob < 0 || prob > 1) {
			return cfg, fmt.Errorf("faultinject: %s: probability %v out of [0,1]", k, prob)
		}
		switch k {
		case "slow":
			cfg.SlowStage = prob
			if dur > 0 {
				cfg.SlowStageDelay = dur
			}
		case "cachefail":
			cfg.CacheFail = prob
		case "panic":
			cfg.Panic = prob
		case "stall":
			cfg.Stall = prob
			if dur > 0 {
				cfg.StallDelay = dur
			}
		case "seed":
			cfg.Seed = int64(prob)
		default:
			return cfg, fmt.Errorf("faultinject: unknown fault family %q", k)
		}
	}
	return cfg, nil
}

// parseValue splits "0.1:5ms" into probability and optional duration.
func parseValue(v string) (float64, time.Duration, error) {
	ps, ds, hasDur := strings.Cut(v, ":")
	prob, err := strconv.ParseFloat(ps, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad value %q", ps)
	}
	if !hasDur {
		return prob, 0, nil
	}
	dur, err := time.ParseDuration(ds)
	if err != nil {
		return 0, 0, fmt.Errorf("bad duration %q", ds)
	}
	return prob, dur, nil
}

// Injector fires faults per Config. All methods are safe for concurrent
// use and safe on a nil receiver (no fault ever fires).
type Injector struct {
	cfg   Config
	mu    sync.Mutex
	rng   *rand.Rand
	fired map[string]int64
	sleep func(time.Duration) // injectable for tests
}

// New builds an Injector. A nil return for a zero config keeps call
// sites on the nil fast path.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		fired: map[string]int64{},
		sleep: time.Sleep,
	}
}

// Enabled reports whether this injector can fire at all.
func (in *Injector) Enabled() bool { return in != nil }

// hit draws one decision and, when it fires, records it under site.
func (in *Injector) hit(p float64, site string) bool {
	if in == nil || p <= 0 {
		return false
	}
	in.mu.Lock()
	fired := in.rng.Float64() < p
	if fired {
		in.fired[site]++
	}
	in.mu.Unlock()
	return fired
}

// SlowStage sleeps for the configured delay with probability
// Config.SlowStage. site labels the stage in the fired-count map.
func (in *Injector) SlowStage(site string) {
	if in.hit(in.cfgSlow(), "slow:"+site) {
		in.sleep(in.cfg.SlowStageDelay)
	}
}

// Stall sleeps for the configured stall delay with probability
// Config.Stall, modeling a stuck worker.
func (in *Injector) Stall(site string) {
	if in.hit(in.cfgStall(), "stall:"+site) {
		in.sleep(in.cfg.StallDelay)
	}
}

// CacheFault reports whether a build-cache operation ("get" or "put")
// should fail. Its signature matches pipeline.CacheFaultHook so an
// Injector plugs straight into Cache.SetFaultHook.
func (in *Injector) CacheFault(op string) bool {
	if in == nil {
		return false
	}
	return in.hit(in.cfg.CacheFail, "cachefail:"+op)
}

// MaybePanic panics with probability Config.Panic. The panic value is a
// *InjectedPanic so recovery sites can distinguish injected faults from
// real bugs.
func (in *Injector) MaybePanic(site string) {
	if in.hit(in.cfgPanic(), "panic:"+site) {
		panic(&InjectedPanic{Site: site})
	}
}

func (in *Injector) cfgSlow() float64 {
	if in == nil {
		return 0
	}
	return in.cfg.SlowStage
}

func (in *Injector) cfgStall() float64 {
	if in == nil {
		return 0
	}
	return in.cfg.Stall
}

func (in *Injector) cfgPanic() float64 {
	if in == nil {
		return 0
	}
	return in.cfg.Panic
}

// InjectedPanic is the panic value MaybePanic throws.
type InjectedPanic struct{ Site string }

func (p *InjectedPanic) Error() string {
	return "faultinject: injected panic at " + p.Site
}

// Fired returns a copy of the per-site fired counts.
func (in *Injector) Fired() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

// TotalFired sums the fired counts across sites.
func (in *Injector) TotalFired() int64 {
	var n int64
	for _, v := range in.Fired() {
		n += v
	}
	return n
}

// Summary renders the fired counts, sorted by site, for logs.
func (in *Injector) Summary() string {
	fired := in.Fired()
	if len(fired) == 0 {
		return "faultinject: no faults fired"
	}
	sites := make([]string, 0, len(fired))
	for k := range fired {
		sites = append(sites, k)
	}
	sort.Strings(sites)
	var b strings.Builder
	b.WriteString("faultinject fired:")
	for _, s := range sites {
		fmt.Fprintf(&b, " %s=%d", s, fired[s])
	}
	return b.String()
}
