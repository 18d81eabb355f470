package satbd

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"satbelim/internal/faultinject"
)

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

// TestChaosLoad is the chaos acceptance run from the issue: a
// progen-driven storm against a daemon with every fault class injected
// (slow stages, cache failures, worker stalls, spurious panics).
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

	inj := faultinject.New(faultinject.Config{
		Seed:           7,
		SlowStage:      0.05,
		SlowStageDelay: 2 * time.Millisecond,
		CacheFail:      0.2,
		Panic:          0.03,
		Stall:          0.05,
		StallDelay:     2 * time.Millisecond,
	})
	s := New(Config{Workers: 4, QueueDepth: 16, Inject: inj})
	ts := httptest.NewServer(s.Handler())

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
	if inj.TotalFired() == 0 {
		t.Error("no fault fired; the chaos run exercised nothing")
	}
	st := s.Stats()
	if st.Requests < int64(programs) {
		t.Errorf("daemon saw %d requests, want >= %d", st.Requests, programs)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("daemon not drained: %+v", st)
	}
	t.Logf("chaos: %d requests, outcomes %v, faults %s, cache %+v",
		programs, load.ByOutcome, inj.Summary(), s.Cache().Stats())

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

	inj := faultinject.New(faultinject.Config{
		Seed:       11,
		Stall:      0.5,
		StallDelay: 30 * time.Millisecond,
	})
	s := New(Config{Workers: 2, QueueDepth: 4, Inject: inj})
	ts := httptest.NewServer(s.Handler())

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
