// Package satbd is the long-running compile-and-run daemon: it serves
// the full pipeline (parse → analyze → run) over HTTP with a hardened
// request path. Every request carries a deadline propagated as a
// context.Context through pipeline.Compile, the core analysis fixed
// point, and the VM scheduler loop; admission control maps client
// deadlines and queue pressure onto tiered analysis budgets and sheds
// load (429 + Retry-After) at saturation; a panic anywhere in a
// request's pipeline is isolated to that request. The invariant the
// chaos tests enforce end to end, with stalls and panics injected from
// the test side and a cache small enough to evict under the storm: the
// daemon degrades (slower responses, conservative all-barriers
// analyses, shed requests, recompiles) but never crashes and never
// returns a silently-wrong result — every degradation is flagged in the
// response document.
package satbd

import (
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/report"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// Config is the daemon's one configuration surface. The zero value is
// usable: normalized fills every unset knob with its default.
type Config struct {
	// Workers is the number of concurrent request slots (default: the
	// number of CPUs).
	Workers int
	// QueueDepth is how many admitted requests may wait for a slot
	// beyond the active ones before new arrivals are shed (default
	// 4×Workers).
	QueueDepth int
	// DefaultDeadline applies when a request names no deadline_ms
	// (default 2s); MaxDeadline clamps client-requested deadlines
	// (default 10s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// Compile-side settings. A request sets none of them: MaxSteps below
	// is the only bound a request can lower.
	InlineLimit    int
	Mode           core.Mode
	NullOrSame     bool
	CacheEntries   int
	MaxSourceBytes int64

	// Tier-0 budgets. Admission control halves the structural analysis
	// budgets per tier step (see admission.go); wall-clock bounding
	// rides exclusively on the request context so the cache key never
	// fragments per-deadline.
	MaxBlockVisits int
	MaxStateSize   int
	MaxSteps       int64
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Second
	}
	if c.InlineLimit <= 0 {
		c.InlineLimit = 100
	}
	if c.Mode == 0 { // core.ModeNone: the daemon default is full analysis
		c.Mode = core.ModeFieldArray
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxBlockVisits <= 0 {
		c.MaxBlockVisits = 200000
	}
	if c.MaxStateSize <= 0 {
		c.MaxStateSize = 1 << 20
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 20_000_000
	}
	return c
}

// Server is one daemon instance. All state is per-instance (its own
// build cache, its own counters): nothing rides on package globals, so
// tests run servers side by side.
type Server struct {
	cfg   Config
	cache *pipeline.Cache
	slots chan int
	start time.Time

	// hook, when set, is called with "compile" before a request compiles
	// and with "run" before it runs. It is for tests only, kept off
	// Config so that nothing that builds a Config can reach it: the chaos
	// tests set it before the server serves, to stall or panic there.
	hook func(site string)

	seq        atomic.Int64
	queued     atomic.Int64
	queuedPeak atomic.Int64
	inflight   atomic.Int64

	requests atomic.Int64
	ok       atomic.Int64
	degraded atomic.Int64
	shed     atomic.Int64
	timeouts atomic.Int64
	errs     atomic.Int64
	panics   atomic.Int64

	tierUps      atomic.Int64
	tierDeopts   atomic.Int64
	tierSegExecs atomic.Int64

	// Barrier traffic across /run requests: deletion-side log entries
	// and insertion-side shade events.
	logged atomic.Int64
	shaded atomic.Int64
}

// New builds a Server from cfg (zero-value fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:   cfg,
		cache: pipeline.NewCache(cfg.CacheEntries),
		slots: make(chan int, cfg.Workers),
		start: time.Now(),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.slots <- i
	}
	return s
}

// Cache exposes the server's build cache (stats endpoints, tests).
func (s *Server) Cache() *pipeline.Cache { return s.cache }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.endpoint("compile"))
	mux.HandleFunc("POST /analyze", s.endpoint("analyze"))
	mux.HandleFunc("POST /run", s.endpoint("run"))
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /trace", s.trace)
	return mux
}

// Stats snapshots the daemon's service counters.
func (s *Server) Stats() report.SatbdStats {
	return report.SatbdStats{
		UptimeNS:   time.Since(s.start).Nanoseconds(),
		Requests:   s.requests.Load(),
		OK:         s.ok.Load(),
		Degraded:   s.degraded.Load(),
		Shed:       s.shed.Load(),
		Timeouts:   s.timeouts.Load(),
		Errors:     s.errs.Load(),
		Panics:     s.panics.Load(),
		Inflight:   s.inflight.Load(),
		Queued:     s.queued.Load(),
		QueuedPeak: s.queuedPeak.Load(),
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,

		TierUps:      s.tierUps.Load(),
		TierDeopts:   s.tierDeopts.Load(),
		TierSegExecs: s.tierSegExecs.Load(),

		Logged: s.logged.Load(),
		Shaded: s.shaded.Load(),
	}
}

// vmConfig derives the VM configuration for one request. The request
// may pick engine/barrier/gc and lower the step budget; it can never
// raise the budget above the admission-granted bound.
func (s *Server) vmConfig(req *Request, maxSteps int64) (vm.Config, error) {
	cfg := vm.Config{MaxSteps: maxSteps}
	var err error
	if cfg.Engine, err = vm.ParseEngine(req.Engine); err != nil {
		return cfg, err
	}
	if cfg.GC, err = vm.ParseGCKind(req.GC); err != nil {
		return cfg, err
	}
	if cfg.Barrier, err = satb.ParseBarrierMode(req.Barrier); err != nil {
		return cfg, err
	}
	cfg.TriggerEveryAllocs = req.GCTrigger
	if req.MaxSteps > 0 && req.MaxSteps < maxSteps {
		cfg.MaxSteps = req.MaxSteps
	}
	return cfg, nil
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	doc := report.NewDocument("satbd")
	st := s.Stats()
	doc.Satbd = &report.Satbd{Stats: &st}
	writeDoc(w, http.StatusOK, doc)
}
