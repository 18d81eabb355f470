package pipeline

import (
	"reflect"
	"testing"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/domain"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

const cacheTestSrc = `
class Node { Node next; int v; }
class A {
    static void main() {
        Node head = null;
        int i = 0;
        while (i < 50) {
            Node n = new Node();
            n.v = i;
            n.next = head;
            head = n;
            i = i + 1;
        }
        int sum = 0;
        while (head != null) { sum = sum + head.v; head = head.next; }
        print(sum);
    }
}
`

func TestBuildCacheHitAndIsolation(t *testing.T) {
	DefaultCache.Clear()
	defer DefaultCache.Clear()
	opts := Options{InlineLimit: 50, Analysis: core.Options{Mode: core.ModeFieldArray}}

	b1, err := Compile("cachetest", cacheTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b1.CacheHit {
		t.Error("first compile must miss")
	}
	b2, err := Compile("cachetest", cacheTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.CacheHit {
		t.Error("identical recompile must hit")
	}
	if b2.Program != b1.Program || b2.Report != b1.Report {
		t.Error("cache hit must share the compiled program and report")
	}
	if b2 == b1 {
		t.Error("cache hit must return a caller-private Build copy")
	}
	// Mutating the copy's stage times must not leak into later hits.
	b2.StageTime = [NumStages]time.Duration{}
	b3, _ := Compile("cachetest", cacheTestSrc, opts)
	if b3.StageTime != b1.StageTime || b3.StageTime[StageAnalyze] == 0 {
		t.Error("caller mutation of a hit leaked into the cache")
	}

	s := DefaultCache.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry", s)
	}

	// Cached and fresh builds must run identically.
	r1, err := b1.Run(vm.Config{Barrier: satb.ModeConditional})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b2.Run(vm.Config{Barrier: satb.ModeConditional})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Output, r2.Output) || r1.Steps != r2.Steps {
		t.Error("cached build diverges from fresh build at runtime")
	}
}

func TestBuildCacheKeySensitivity(t *testing.T) {
	DefaultCache.Clear()
	defer DefaultCache.Clear()
	base := Options{InlineLimit: 50, Analysis: core.Options{Mode: core.ModeFieldArray}}
	if _, err := Compile("keytest", cacheTestSrc, base); err != nil {
		t.Fatal(err)
	}

	variants := []Options{
		{InlineLimit: 25, Analysis: base.Analysis},                                             // inline limit
		{InlineLimit: 50, Analysis: core.Options{Mode: core.ModeField}},                        // analysis mode
		{InlineLimit: 50, Analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true}}, // extension flag
	}
	for i, o := range variants {
		b, err := Compile("keytest", cacheTestSrc, o)
		if err != nil {
			t.Fatal(err)
		}
		if b.CacheHit {
			t.Errorf("variant %d must miss (different options)", i)
		}
	}
	if b, err := Compile("keytest", cacheTestSrc, base); err != nil || !b.CacheHit {
		t.Errorf("base options must still hit their own entry (hit=%v, err=%v)", b != nil && b.CacheHit, err)
	}
	// The worker count cannot influence a build, so it is no part of the
	// key: a compile differing only in it is served the same entry.
	inert := base
	inert.Workers = 1
	if b, err := Compile("keytest", cacheTestSrc, inert); err != nil || !b.CacheHit {
		t.Errorf("a different worker count must share the entry (hit=%v, err=%v)", b != nil && b.CacheHit, err)
	}
	// Different source content must miss even under the same name.
	b, err := Compile("keytest", cacheTestSrc+"\n// changed", base)
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheHit {
		t.Error("changed source must miss")
	}
}

func TestBuildCacheBypass(t *testing.T) {
	DefaultCache.Clear()
	defer DefaultCache.Clear()
	opts := Options{InlineLimit: 50, NoCache: true}
	for i := 0; i < 2; i++ {
		b, err := Compile("nocache", cacheTestSrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if b.CacheHit {
			t.Fatal("NoCache build must never hit")
		}
	}
	if s := DefaultCache.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Errorf("NoCache builds must not touch the cache: %+v", s)
	}

	// Caller-supplied summaries are out-of-band input: never cached.
	w, err := workloads.Get("jack")
	if err != nil {
		t.Fatal(err)
	}
	sopts := Options{InlineLimit: 50, Analysis: core.Options{
		Mode: core.ModeFieldArray, Interprocedural: true, Summaries: domain.Summaries{},
	}}
	for i := 0; i < 2; i++ {
		b, err := Compile("jack", w.Source, sopts)
		if err != nil {
			t.Fatal(err)
		}
		if b.CacheHit {
			t.Fatal("summary-supplied build must never hit")
		}
	}
}
