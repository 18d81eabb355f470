package faultinject

import (
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	in.SlowStage("parse") // must not panic
	in.Stall("worker")
	in.MaybePanic("handler")
	if in.CacheFault("get") {
		t.Error("nil injector fired a cache fault")
	}
	if in.Fired() != nil || in.TotalFired() != 0 {
		t.Error("nil injector recorded fires")
	}
	if New(Config{}) != nil {
		t.Error("New with a zero config must return nil (all-off fast path)")
	}
}

func TestSeededDeterminism(t *testing.T) {
	run := func() map[string]int64 {
		in := New(Config{Seed: 42, Panic: 0.5})
		for i := 0; i < 200; i++ {
			func() {
				defer func() { recover() }()
				in.MaybePanic("site")
			}()
		}
		return in.Fired()
	}
	a, b := run(), run()
	if a["panic:site"] == 0 {
		t.Fatal("p=0.5 over 200 draws never fired")
	}
	if a["panic:site"] != b["panic:site"] {
		t.Errorf("same seed, different fire counts: %d vs %d", a["panic:site"], b["panic:site"])
	}
}

func TestProbabilityOneAlwaysFires(t *testing.T) {
	slept := 0
	in := New(Config{SlowStage: 1, SlowStageDelay: time.Millisecond, Stall: 1, StallDelay: time.Millisecond, CacheFail: 1, Panic: 1})
	in.sleep = func(time.Duration) { slept++ }
	in.SlowStage("analyze")
	in.Stall("w0")
	if slept != 2 {
		t.Errorf("slept %d times, want 2", slept)
	}
	if !in.CacheFault("put") {
		t.Error("p=1 cache fault did not fire")
	}
	caught := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if ip, ok := r.(*InjectedPanic); !ok || ip.Site != "handler" {
					t.Errorf("panic value = %#v, want *InjectedPanic{handler}", r)
				}
				caught = true
			}
		}()
		in.MaybePanic("handler")
	}()
	if !caught {
		t.Error("p=1 panic did not fire")
	}
	if in.TotalFired() != 4 {
		t.Errorf("TotalFired = %d, want 4 (%s)", in.TotalFired(), in.Summary())
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("slow=0.1:5ms,cachefail=0.2,panic=0.05,stall=0.3:10ms,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 42, SlowStage: 0.1, SlowStageDelay: 5 * time.Millisecond,
		CacheFail: 0.2, Panic: 0.05, Stall: 0.3, StallDelay: 10 * time.Millisecond}
	if cfg != want {
		t.Errorf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Error("parsed config should be enabled")
	}

	if cfg, err := ParseSpec(""); err != nil || cfg.Enabled() {
		t.Errorf("empty spec: cfg=%+v err=%v, want disabled, nil", cfg, err)
	}
	for _, bad := range []string{"slow", "slow=x", "slow=2", "slow=-0.1", "warp=0.5", "slow=0.1:zz"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", bad)
		}
	}
}
