package satbd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/obs"
	"satbelim/internal/report"
)

const helloSrc = `
class A {
    static void main() {
        int s = 0;
        for (int i = 0; i < 10; i = i + 1) { s = s + i; }
        print(s);
    }
}
`

// loopySrc has enough conditional branching to exceed a starved visit
// budget deterministically.
func loopySrc() string {
	var b strings.Builder
	b.WriteString("class N { N next; }\nclass A {\n    static void main() {\n        N n = new N();\n        int s = 0;\n")
	for i := 0; i < 128; i++ {
		fmt.Fprintf(&b, "        if (s < %d) { s = s + 1; n.next = new N(); }\n", i)
	}
	b.WriteString("        print(s);\n    }\n}\n")
	return b.String()
}

// spinSrc runs ~1e9 iterations: far past any deadline or step budget.
const spinSrc = `
class A {
    static void main() {
        int s = 0;
        for (int i = 0; i < 1000000000; i = i + 1) { s = s + 1; }
        print(s);
    }
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newHookedServer(t, cfg, nil)
}

// newHookedServer serves a Server whose hook is set before it serves.
func newHookedServer(t *testing.T, cfg Config, hook func(site string)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.hook = hook
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one request and decodes the response document.
func post(t *testing.T, ts *httptest.Server, endpoint string, req Request) (int, http.Header, report.Document) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /%s: %v", endpoint, err)
	}
	defer resp.Body.Close()
	var doc report.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("POST /%s: response is not a Document: %v", endpoint, err)
	}
	if doc.SchemaVersion != report.SchemaVersion || doc.Tool != "satbd" {
		t.Fatalf("POST /%s: schemaVersion/tool = %d/%q", endpoint, doc.SchemaVersion, doc.Tool)
	}
	if doc.Satbd == nil || doc.Satbd.Request == nil {
		t.Fatalf("POST /%s: no satbd.request envelope", endpoint)
	}
	return resp.StatusCode, resp.Header, doc
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCompileRunAnalyzeHappyPath(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	status, _, doc := post(t, ts, "compile", Request{Name: "hello", Source: helloSrc})
	if status != 200 || doc.Satbd.Request.Outcome != OutcomeOK {
		t.Fatalf("compile: status %d outcome %q", status, doc.Satbd.Request.Outcome)
	}
	if doc.Compile == nil || doc.Compile.Workload != "hello" || doc.Compile.CacheHit {
		t.Fatalf("compile section = %+v", doc.Compile)
	}

	// Identical request: served from the daemon's cache.
	_, _, doc = post(t, ts, "compile", Request{Name: "hello", Source: helloSrc})
	if doc.Compile == nil || !doc.Compile.CacheHit {
		t.Error("second identical compile must be a cache hit")
	}

	status, _, doc = post(t, ts, "run", Request{Name: "hello", Source: helloSrc})
	if status != 200 || doc.Run == nil {
		t.Fatalf("run: status %d, run section %+v", status, doc.Run)
	}
	if len(doc.Run.Output) != 1 || doc.Run.Output[0] != 45 {
		t.Errorf("run output = %v, want [45]", doc.Run.Output)
	}

	status, _, doc = post(t, ts, "analyze", Request{Name: "hello", Source: helloSrc})
	if status != 200 || len(doc.Methods) == 0 {
		t.Fatalf("analyze: status %d, methods %v", status, doc.Methods)
	}

	if st := s.Stats(); st.Requests != 4 || st.OK != 4 {
		t.Errorf("stats = %+v, want 4 requests / 4 ok", st)
	}
}

// hotSrc loops far past the default tier-up threshold, so a
// compiled-engine run tiers main up deterministically.
const hotSrc = `
class A {
    static void main() {
        int s = 0;
        for (int i = 0; i < 5000; i = i + 1) { s = s + i; }
        print(s);
    }
}
`

func TestCompiledTierStatsInMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	status, _, doc := post(t, ts, "run", Request{Name: "hot", Source: hotSrc, Engine: "compiled"})
	if status != 200 || doc.Run == nil {
		t.Fatalf("run: status %d outcome %q", status, doc.Satbd.Request.Outcome)
	}
	if doc.Run.TierUps <= 0 || doc.Run.TierSegExecs <= 0 {
		t.Errorf("run summary tier counters = ups %d / segs %d, want both > 0",
			doc.Run.TierUps, doc.Run.TierSegExecs)
	}
	st := s.Stats()
	if st.TierUps <= 0 || st.TierSegExecs <= 0 {
		t.Errorf("daemon tier stats = ups %d / segs %d, want both > 0", st.TierUps, st.TierSegExecs)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mdoc report.Document
	if err := json.NewDecoder(resp.Body).Decode(&mdoc); err != nil {
		t.Fatal(err)
	}
	if mdoc.Satbd == nil || mdoc.Satbd.Stats == nil {
		t.Fatal("metrics response has no stats section")
	}
	if got := mdoc.Satbd.Stats; got.TierUps != st.TierUps || got.TierSegExecs != st.TierSegExecs {
		t.Errorf("/metrics tier stats = %d/%d, want %d/%d",
			got.TierUps, got.TierSegExecs, st.TierUps, st.TierSegExecs)
	}

	// A switch-engine run must not move the tier counters.
	post(t, ts, "run", Request{Name: "hot", Source: hotSrc, Engine: "switch"})
	if after := s.Stats(); after.TierUps != st.TierUps || after.TierSegExecs != st.TierSegExecs {
		t.Errorf("switch run moved tier counters: %d/%d -> %d/%d",
			st.TierUps, st.TierSegExecs, after.TierUps, after.TierSegExecs)
	}
}

// TestConcurrentCompiledRunsOfOneBuild: two /run requests on the compiled
// engine at once, on one cached build, whose VMs share its image and the
// translations in it. Both succeed with the same output.
func TestConcurrentCompiledRunsOfOneBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if status, _, doc := post(t, ts, "compile", Request{Name: "hot", Source: hotSrc}); status != 200 {
		t.Fatalf("compile: status %d outcome %q", status, doc.Satbd.Request.Outcome)
	}
	body, err := json.Marshal(Request{Name: "hot", Source: hotSrc, Engine: "compiled"})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]report.Document, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			errs[i] = json.NewDecoder(resp.Body).Decode(&docs[i])
		}()
	}
	wg.Wait()
	for i, doc := range docs {
		switch {
		case errs[i] != nil:
			t.Fatalf("run %d: %v", i, errs[i])
		case doc.Satbd == nil || doc.Satbd.Request == nil || doc.Satbd.Request.Outcome != OutcomeOK || doc.Run == nil:
			t.Fatalf("run %d: not ok: %+v", i, doc.Satbd)
		case doc.Compile == nil || !doc.Compile.CacheHit:
			t.Errorf("run %d did not run the cached build", i)
		case doc.Run.TierUps == 0:
			t.Errorf("run %d tiered nothing up", i)
		}
	}
	if a, b := docs[0].Run.Output, docs[1].Run.Output; len(a) != 1 || a[0] != 12497500 || len(b) != 1 || b[0] != a[0] {
		t.Errorf("outputs %v and %v, want [12497500] twice", a, b)
	}
}

func TestLatencyStats(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	got := latencyStats(map[string][]time.Duration{
		"ok":    {ms(5), ms(1), ms(3), ms(2), ms(4)},
		"empty": {},
	})
	lat, found := got["ok"]
	if !found || len(got) != 1 {
		t.Fatalf("latencyStats = %+v, want exactly one class %q", got, "ok")
	}
	want := report.SatbdLatency{
		Count: 5,
		P50NS: ms(3).Nanoseconds(),
		P95NS: ms(5).Nanoseconds(),
		P99NS: ms(5).Nanoseconds(),
		MaxNS: ms(5).Nanoseconds(),
	}
	if lat != want {
		t.Errorf("latencyStats[ok] = %+v, want %+v", lat, want)
	}
	if latencyStats(nil) != nil {
		t.Error("latencyStats(nil) must be nil so the JSON field stays omitted")
	}
}

func TestBadRequestsNeverCrash(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	for name, body := range map[string]string{
		"not json":       "{",
		"no source":      `{"name":"x"}`,
		"parse error":    `{"source":"class {{{"}`,
		"unknown engine": fmt.Sprintf(`{"source":%q,"engine":"turbo"}`, helloSrc),
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var doc report.Document
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("%s: non-Document error response: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || doc.Satbd.Request.Outcome != OutcomeError {
			t.Errorf("%s: status %d outcome %q, want 400/error", name, resp.StatusCode, doc.Satbd.Request.Outcome)
		}
		if doc.Satbd.Request.Error == "" {
			t.Errorf("%s: error outcome without a message", name)
		}
	}

	// Wrong method: the Go 1.22 mux patterns reject it before a handler.
	resp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: status %d, want 405", resp.StatusCode)
	}
}

func TestDeadlineTimesOutSpinningRun(t *testing.T) {
	// A step budget far beyond the spin loop, so the request can only
	// end via its deadline — observed by the VM at a quantum boundary.
	s, ts := newTestServer(t, Config{Workers: 2, MaxSteps: 1 << 40})
	start := time.Now()
	status, _, doc := post(t, ts, "run", Request{Name: "spin", Source: spinSrc, DeadlineMS: 300})
	if status != http.StatusGatewayTimeout || doc.Satbd.Request.Outcome != OutcomeTimeout {
		t.Fatalf("status %d outcome %q, want 504/timeout", status, doc.Satbd.Request.Outcome)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("timed-out request took %v, want prompt abort at a quantum boundary", elapsed)
	}
	if doc.Satbd.Request.Error == "" {
		t.Error("timeout response must carry the error")
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", st.Timeouts)
	}
}

// TestHugeDeadlineIsClamped: a deadline past what a time.Duration holds is
// clamped to MaxDeadline like any other long one, not wrapped negative into
// an instant timeout.
func TestHugeDeadlineIsClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, ms := range []int64{10_000_000_000_000, math.MaxInt64} {
		status, _, doc := post(t, ts, "compile", Request{Name: "hello", Source: helloSrc, DeadlineMS: ms})
		if status != http.StatusOK || doc.Satbd.Request.Outcome != OutcomeOK {
			t.Errorf("deadline_ms %d: status %d outcome %q (%s), want 200/ok", ms, status, doc.Satbd.Request.Outcome, doc.Satbd.Request.Error)
		}
		if got, want := doc.Satbd.Request.DeadlineMS, (10 * time.Second).Milliseconds(); got != want {
			t.Errorf("deadline_ms %d: effective deadline %d ms, want MaxDeadline %d ms", ms, got, want)
		}
	}
}

func TestDegradedAnalysisIsFlagged(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxBlockVisits: 6, MaxStateSize: 1 << 20})

	status, _, doc := post(t, ts, "analyze", Request{Name: "loopy", Source: loopySrc()})
	if status != 200 || doc.Satbd.Request.Outcome != OutcomeDegraded {
		t.Fatalf("status %d outcome %q, want 200/degraded", status, doc.Satbd.Request.Outcome)
	}
	if doc.Compile == nil || len(doc.Compile.Degraded) == 0 {
		t.Fatal("degraded outcome must list the degraded methods")
	}
	found := false
	for _, m := range doc.Methods {
		if m.Degraded == string(core.DegradeVisitBudget) {
			found = true
		}
	}
	if !found {
		t.Errorf("per-method detail missing visit-budget degradation: %+v", doc.Methods)
	}
	// Degradation is sound, not an error: the program still runs and
	// prints the right answer.
	status, _, doc = post(t, ts, "run", Request{Name: "loopy", Source: loopySrc()})
	if status != 200 || len(doc.Run.Output) != 1 || doc.Run.Output[0] != 127 {
		t.Errorf("degraded run: status %d output %v, want [127]", status, doc.Run.Output)
	}
}

func TestAdmissionShedsAtCapacity(t *testing.T) {
	// One worker, queue depth 1: capacity is 2 waiting requests. Every
	// request stalls 400ms in the worker, so the sequence A (running),
	// B and C (waiting), D is deterministic: D must be shed.
	inj := newInjector(1, 1, 400*time.Millisecond, 0)
	s, ts := newHookedServer(t, Config{Workers: 1, QueueDepth: 1}, inj.at)

	var wg sync.WaitGroup
	results := make(chan string, 3)
	send := func() {
		defer wg.Done()
		_, _, doc := post(t, ts, "compile", Request{Name: "hello", Source: helloSrc})
		results <- doc.Satbd.Request.Outcome
	}
	wg.Add(1)
	go send()
	waitFor(t, "request A in flight", func() bool { return s.Stats().Inflight == 1 })
	for i, want := range []int64{1, 2} {
		wg.Add(1)
		go send()
		waitFor(t, fmt.Sprintf("request %d queued", i), func() bool { return s.Stats().Queued == want })
	}

	status, hdr, doc := post(t, ts, "compile", Request{Name: "hello", Source: helloSrc})
	if status != http.StatusTooManyRequests || doc.Satbd.Request.Outcome != OutcomeShed {
		t.Fatalf("D: status %d outcome %q, want 429/shed", status, doc.Satbd.Request.Outcome)
	}
	if hdr.Get("Retry-After") == "" || doc.Satbd.Request.RetryAfterS == 0 {
		t.Error("shed response must carry Retry-After")
	}

	wg.Wait()
	for i := 0; i < 3; i++ {
		if outcome := <-results; outcome != OutcomeOK {
			t.Errorf("admitted request finished %q, want ok", outcome)
		}
	}
	st := s.Stats()
	if st.Shed != 1 || st.OK != 3 || st.QueuedPeak < 2 {
		t.Errorf("stats = %+v, want 1 shed / 3 ok / peak >= 2", st)
	}
}

// TestHugeArrayIsAnError: an array past the heap's length limit is a
// runtime error of the request, not a Go out-of-memory crash that would
// take the daemon down with it; the daemon answers 400/error and serves on.
func TestHugeArrayIsAnError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, n := range []string{"400000000", "1152921504606846976"} {
		src := "class A { static void main() { int[] a = new int[" + n + "]; print(a.length); } }"
		status, _, doc := post(t, ts, "run", Request{Name: "huge", Source: src})
		if status != http.StatusBadRequest || doc.Satbd.Request.Outcome != OutcomeError ||
			!strings.Contains(doc.Satbd.Request.Error, "array size "+n+" exceeds the heap limit") {
			t.Errorf("new int[%s]: status %d outcome %q (%s), want 400/error", n, status, doc.Satbd.Request.Outcome, doc.Satbd.Request.Error)
		}
	}
	status, _, doc := post(t, ts, "run", Request{Name: "hello", Source: helloSrc})
	if status != http.StatusOK || len(doc.Run.Output) != 1 || doc.Run.Output[0] != 45 {
		t.Errorf("run after the huge arrays: status %d, run %+v", status, doc.Run)
	}
}

// TestDeepNestingIsACompileError: a source within MaxSourceBytes whose
// 450 000 nested parentheses used to overflow the parser's goroutine stack
// — a fatal error no recover catches, so one /compile took the daemon
// down — is a syntax error of the request, and the daemon serves on.
func TestDeepNestingIsACompileError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	deep := "class A { static void main() { int x = " + strings.Repeat("(", 450000) + "1" + strings.Repeat(")", 450000) + "; print(x); } }"
	status, _, doc := post(t, ts, "compile", Request{Name: "deep", Source: deep})
	if status != http.StatusBadRequest || doc.Satbd.Request.Outcome != OutcomeError ||
		!strings.Contains(doc.Satbd.Request.Error, "nesting deeper than") {
		t.Errorf("deep nesting: status %d outcome %q (%s), want 400/error", status, doc.Satbd.Request.Outcome, doc.Satbd.Request.Error)
	}
	status, _, doc = post(t, ts, "run", Request{Name: "hello", Source: helloSrc})
	if status != http.StatusOK || len(doc.Run.Output) != 1 || doc.Run.Output[0] != 45 {
		t.Errorf("run after the deep nesting: status %d, run %+v", status, doc.Run)
	}
}

// TestOversizedBodyIsRefused: a body longer than MaxSourceBytes is refused
// as too large, not decoded as far as the limit and reported as a
// truncated JSON value; one within the limit is served.
func TestOversizedBodyIsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxSourceBytes: 200})
	status, _, doc := post(t, ts, "compile", Request{Name: "loopy", Source: loopySrc()})
	if status != http.StatusBadRequest || doc.Satbd.Request.Outcome != OutcomeError ||
		doc.Satbd.Request.Error != "satbd: request body exceeds 200 bytes" {
		t.Errorf("oversized body: status %d outcome %q (%s), want 400/error saying it exceeds 200 bytes",
			status, doc.Satbd.Request.Outcome, doc.Satbd.Request.Error)
	}
	small := "class A { static void main() { print(1); } }"
	if status, _, doc := post(t, ts, "compile", Request{Name: "small", Source: small}); status != http.StatusOK {
		t.Errorf("body within the limit: status %d (%s), want 200", status, doc.Satbd.Request.Error)
	}
}

func TestPanicIsolation(t *testing.T) {
	// Every request panics mid-pipeline; the daemon must answer 500 each
	// time and stay alive.
	inj := newInjector(1, 0, 0, 1)
	s, ts := newHookedServer(t, Config{Workers: 2}, inj.at)

	for i := 0; i < 3; i++ {
		status, _, doc := post(t, ts, "run", Request{Name: "hello", Source: helloSrc})
		if status != http.StatusInternalServerError || doc.Satbd.Request.Outcome != OutcomePanic {
			t.Fatalf("request %d: status %d outcome %q, want 500/panic", i, status, doc.Satbd.Request.Outcome)
		}
		if !strings.Contains(doc.Satbd.Request.Error, "injected panic") {
			t.Errorf("request %d: error %q lacks panic provenance", i, doc.Satbd.Request.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("daemon died after panics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz after panics: %d", resp.StatusCode)
	}
	if st := s.Stats(); st.Panics != 3 {
		t.Errorf("panics = %d, want 3", st.Panics)
	}
}

func TestHealthzMetricsAndTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	post(t, ts, "compile", Request{Name: "hello", Source: helloSrc})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var doc report.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Satbd == nil || doc.Satbd.Stats == nil || doc.Satbd.Stats.Requests != 1 {
		t.Fatalf("healthz stats = %+v", doc.Satbd)
	}

	// Without a collector: /trace is a 404, /metrics still serves stats
	// and cache counters.
	resp, err = http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace without collector: %d, want 404", resp.StatusCode)
	}

	// With the collector enabled, request spans land on per-worker lanes
	// and both exports serve.
	obs.EnableCollector(obs.NewCollector())
	defer obs.Disable()
	post(t, ts, "run", Request{Name: "hello", Source: helloSrc})

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	doc = report.Document{}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Metrics == nil || doc.BuildCache == nil || doc.Satbd == nil || doc.Satbd.Stats == nil {
		t.Fatalf("metrics document incomplete: metrics=%v cache=%v", doc.Metrics != nil, doc.BuildCache != nil)
	}
	if doc.Metrics.Counters["satbd.requests"] == 0 {
		t.Errorf("satbd.requests counter missing: %v", doc.Metrics.Counters)
	}

	resp, err = http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("trace with collector: status %d err %v", resp.StatusCode, err)
	}
	if !json.Valid(body) {
		t.Fatal("chrome trace is not valid JSON")
	}
	// Request spans run on per-worker lanes, exported as thread names.
	if !bytes.Contains(body, []byte("satbd/w")) {
		t.Error("chrome trace has no satbd worker lane")
	}
	_ = s
}

func TestAdmissionTiersQuantizeBudgets(t *testing.T) {
	s := New(Config{Workers: 4, MaxBlockVisits: 1600, MaxStateSize: 1 << 20, MaxSteps: 1 << 20})

	if tier := admissionTier(2*time.Second, 2*time.Second, 0, 4); tier != 0 {
		t.Errorf("relaxed request tier = %d, want 0", tier)
	}
	if tier := admissionTier(100*time.Millisecond, 2*time.Second, 0, 4); tier == 0 {
		t.Error("tight deadline must raise the tier")
	}
	if tier := admissionTier(2*time.Second, 2*time.Second, 16, 4); tier == 0 {
		t.Error("deep queue must raise the tier")
	}
	t0, t2 := s.budgets(0), s.budgets(2)
	if t0.blockVisits != 1600 || t2.blockVisits != 400 {
		t.Errorf("budgets: tier0=%d tier2=%d, want 1600/400", t0.blockVisits, t2.blockVisits)
	}
	if b := s.budgets(maxTier + 10); b.blockVisits < 1 || b.steps < 1 {
		t.Errorf("over-tier budgets must stay positive: %+v", b)
	}
	// Same tier → same budgets → same cache key: requests coalesce.
	if s.budgets(1) != s.budgets(1) {
		t.Error("budgets must be deterministic per tier")
	}
}
