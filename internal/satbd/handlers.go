package satbd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/obs"
	"satbelim/internal/pipeline"
	"satbelim/internal/report"
	"satbelim/internal/vm"
)

// Request is the JSON body of /compile, /analyze, and /run. Only
// Source is required; everything else defaults from the server config.
type Request struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	// DeadlineMS is the client's wall-clock budget for this request,
	// clamped to the server's MaxDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Runtime knobs (/run only).
	Engine    string `json:"engine,omitempty"`
	Barrier   string `json:"barrier,omitempty"`
	GC        string `json:"gc,omitempty"`
	GCTrigger int64  `json:"gc_trigger,omitempty"`
	// MaxSteps may lower (never raise) the admission-granted VM step
	// budget.
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// Outcome classes carried in SatbdRequest.Outcome. Exactly one applies
// per response; "degraded" means the compile succeeded but at least one
// method fell back to all-barriers — the result is correct and the
// degradation is flagged, never silent.
const (
	OutcomeOK       = "ok"
	OutcomeDegraded = "degraded"
	OutcomeShed     = "shed"
	OutcomeTimeout  = "timeout"
	OutcomeError    = "error"
	OutcomePanic    = "panic"
)

// decodeRequest reads the JSON body of r, refusing one longer than
// maxBytes outright rather than decoding a truncated prefix of it.
func decodeRequest(w http.ResponseWriter, r *http.Request, maxBytes int64) (*Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	if err := dec.Decode(&req); err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("satbd: request body exceeds %d bytes", maxBytes)
		}
		return nil, fmt.Errorf("satbd: bad request body: %w", err)
	}
	if req.Source == "" {
		return nil, errors.New("satbd: request has no source")
	}
	if req.Name == "" {
		req.Name = "prog"
	}
	return &req, nil
}

// clampDeadline resolves the effective per-request deadline. The request's
// milliseconds are compared before they are converted: a Duration holds
// only about 292 years, and a larger product would wrap negative.
func (s *Server) clampDeadline(ms int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		if ms > s.cfg.MaxDeadline.Milliseconds() {
			return s.cfg.MaxDeadline
		}
		d = time.Duration(ms) * time.Millisecond
	}
	return min(d, s.cfg.MaxDeadline)
}

// endpoint builds the handler for one pipeline endpoint. The shape is
// the same for all three: decode → admit (shed or wait for a slot) →
// process under a per-request context with panic isolation → respond
// with a schema-valid Document whatever happened.
func (s *Server) endpoint(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.requests.Add(1)
		obs.Count("satbd.requests", 1)
		sr := &report.SatbdRequest{
			ID:       fmt.Sprintf("r%06d", s.seq.Add(1)),
			Endpoint: name,
		}
		doc := report.NewDocument("satbd")
		doc.Satbd = &report.Satbd{Request: sr}

		req, err := decodeRequest(w, r, s.cfg.MaxSourceBytes)
		if err != nil {
			s.errs.Add(1)
			s.finish(w, http.StatusBadRequest, doc, sr, OutcomeError, err, t0)
			return
		}
		deadline := s.clampDeadline(req.DeadlineMS)
		sr.DeadlineMS = deadline.Milliseconds()
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()

		// Admission: q counts requests admitted but not yet holding a
		// slot. Beyond Workers+QueueDepth waiters the daemon sheds
		// rather than queueing unbounded work it cannot finish.
		q := s.queued.Add(1)
		for {
			peak := s.queuedPeak.Load()
			if q <= peak || s.queuedPeak.CompareAndSwap(peak, q) {
				break
			}
		}
		if int(q) > s.cfg.Workers+s.cfg.QueueDepth {
			s.queued.Add(-1)
			s.shed.Add(1)
			obs.Count("satbd.shed", 1)
			sr.QueueDepth = int(q) - 1
			sr.RetryAfterS = 1
			w.Header().Set("Retry-After", "1")
			err := fmt.Errorf("satbd: saturated (%d waiting, capacity %d)", q-1, s.cfg.Workers+s.cfg.QueueDepth)
			s.finish(w, http.StatusTooManyRequests, doc, sr, OutcomeShed, err, t0)
			return
		}
		var slot int
		select {
		case slot = <-s.slots:
		case <-ctx.Done():
			s.queued.Add(-1)
			s.timeouts.Add(1)
			obs.Count("satbd.queue_timeouts", 1)
			s.finish(w, http.StatusGatewayTimeout, doc, sr, OutcomeTimeout, ctx.Err(), t0)
			return
		}
		waiting := s.queued.Add(-1)
		sr.QueueDepth = int(waiting)
		sr.QueueWaitNS = time.Since(t0).Nanoseconds()
		obs.Count("satbd.queue_wait_ns", sr.QueueWaitNS)
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.slots <- slot
		}()

		// Queue pressure and the request's own deadline pick the
		// admission tier; the tier quantizes the structural budgets so
		// cache keys stay shared across requests in the same tier.
		tier := admissionTier(deadline, s.cfg.DefaultDeadline, int(waiting), s.cfg.Workers)
		bgt := s.budgets(tier)
		sr.Tier = tier
		sr.MaxBlockVisits = bgt.blockVisits
		sr.MaxStateSize = bgt.stateSize
		sr.MaxSteps = bgt.steps

		status, outcome, err := s.process(ctx, slot, name, req, bgt, doc)
		s.finish(w, status, doc, sr, outcome, err, t0)
	}
}

// finish stamps the outcome on the request envelope, bumps the outcome
// counters, and writes the response document.
func (s *Server) finish(w http.ResponseWriter, status int, doc *report.Document, sr *report.SatbdRequest, outcome string, err error, t0 time.Time) {
	sr.Outcome = outcome
	if err != nil {
		sr.Error = err.Error()
	}
	sr.ElapsedNS = time.Since(t0).Nanoseconds()
	// shed/timeout/error/panic counters are bumped where the condition
	// is detected; the success classes are counted here.
	switch outcome {
	case OutcomeOK:
		s.ok.Add(1)
	case OutcomeDegraded:
		s.degraded.Add(1)
		obs.Count("satbd.degraded", 1)
	}
	writeDoc(w, status, doc)
}

// process runs one admitted request through the pipeline. Any panic —
// from the compiler, the analysis (beyond core's own per-method
// recovery), the VM, or a test's hook — is confined here: the
// request gets a 500 with outcome "panic" and the daemon keeps serving.
func (s *Server) process(ctx context.Context, slot int, name string, req *Request, bgt budgets, doc *report.Document) (status int, outcome string, err error) {
	lane := fmt.Sprintf("satbd/w%d", slot)
	sp := obs.StartSpan(lane, "satbd", name)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			obs.Count("satbd.panics", 1)
			status, outcome = http.StatusInternalServerError, OutcomePanic
			err = fmt.Errorf("satbd: request panicked: %v\n%s", r, debug.Stack())
			doc.Run, doc.Compile, doc.Methods = nil, nil, nil
		}
		sp.EndArgs(obs.KV{K: "outcome", S: outcome})
	}()

	if s.hook != nil {
		s.hook("compile")
	}

	opts := pipeline.Options{
		InlineLimit: s.cfg.InlineLimit,
		Analysis: core.Options{
			Mode:           s.cfg.Mode,
			NullOrSame:     s.cfg.NullOrSame,
			MaxBlockVisits: bgt.blockVisits,
			MaxStateSize:   bgt.stateSize,
		},
		Cache: s.cache,
	}
	b, err := pipeline.CompileCtx(ctx, req.Name, req.Source, opts)
	if err != nil {
		if ctxErr(err) {
			s.timeouts.Add(1)
			obs.Count("satbd.timeouts", 1)
			return http.StatusGatewayTimeout, OutcomeTimeout, err
		}
		s.errs.Add(1)
		return http.StatusBadRequest, OutcomeError, err
	}
	doc.Compile = report.NewCompileSummary(b)
	outcome = OutcomeOK
	if b.Report != nil && len(b.Report.Degraded()) > 0 {
		outcome = OutcomeDegraded
	}

	switch name {
	case "analyze":
		doc.Methods = report.NewMethodSummaries(b.Report)
	case "run":
		cfg, err := s.vmConfig(req, bgt.steps)
		if err != nil {
			s.errs.Add(1)
			return http.StatusBadRequest, OutcomeError, err
		}
		if s.hook != nil {
			s.hook("run")
		}
		res, err := vm.New(b.Program, cfg).RunContext(ctx)
		if err != nil {
			if ctxErr(err) {
				s.timeouts.Add(1)
				obs.Count("satbd.timeouts", 1)
				return http.StatusGatewayTimeout, OutcomeTimeout, err
			}
			s.errs.Add(1)
			return http.StatusBadRequest, OutcomeError, err
		}
		s.tierUps.Add(int64(res.TierUps))
		s.tierDeopts.Add(res.TierDeopts)
		s.tierSegExecs.Add(res.TierSegExecs)
		s.logged.Add(int64(res.Counters.Logged))
		s.shaded.Add(int64(res.Counters.Shaded))
		doc.Run = report.NewRunSummary(req.Name, res)
	}
	return http.StatusOK, outcome, nil
}

// ctxErr reports whether an error is the request's own deadline or
// cancellation surfacing through a pipeline stage.
func ctxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	doc := report.NewDocument("satbd")
	st := s.Stats()
	cs := s.cache.Stats()
	doc.Satbd = &report.Satbd{Stats: &st}
	doc.BuildCache = &cs
	if c := obs.Active(); c != nil {
		m := c.Metrics()
		doc.Metrics = &m
	}
	writeDoc(w, http.StatusOK, doc)
}

// trace serves the Chrome trace (chrome://tracing / Perfetto) of the
// process collector; 404 when tracing is not enabled.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	c := obs.Active()
	if c == nil {
		http.Error(w, "satbd: tracing not enabled (start with -obs)", http.StatusNotFound)
		return
	}
	data, err := c.ChromeTrace()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// docBufs holds the buffers writeDoc encodes into.
var docBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// docBufMax bounds the buffer recycleDocBuf puts back, as fmt bounds its
// printers': about 28 times the largest response a benchmark request
// gets, so that one huge response does not pin its buffer for as long as
// traffic keeps the pool warm.
const docBufMax = 64 << 10

// recycleDocBuf empties buf and puts it back in docBufs, unless it grew
// past docBufMax; it reports whether it did.
func recycleDocBuf(buf *bytes.Buffer) bool {
	if buf.Cap() > docBufMax {
		return false
	}
	buf.Reset()
	docBufs.Put(buf)
	return true
}

// writeDoc sends a Document as compact JSON and a newline, the bytes of
// json.Marshal and '\n': the wire format has no reader to indent for, and
// the files the CLIs write keep their indentation. The document is encoded
// in full into a pooled buffer before the status line goes out, so a
// failure can still answer 500, and the body is written from that buffer
// with no copy.
func writeDoc(w http.ResponseWriter, status int, doc *report.Document) {
	buf := docBufs.Get().(*bytes.Buffer)
	defer recycleDocBuf(buf)
	if err := json.NewEncoder(buf).Encode(doc); err != nil {
		// A Document always marshals; this is unreachable but must not
		// produce a schema-invalid body if it ever fires.
		http.Error(w, `{"schemaVersion":0}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
