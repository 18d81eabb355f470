package core_test

import (
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/progen"
	"satbelim/internal/workloads"
)

// TestOneRefTablePerMethod: the 24 builds of the benchmark's compile_cold
// sweep — the six workloads at inline limit 100, again at limit 0 with
// summaries, and twelve generated programs at limit 100 with summaries —
// number each method's references once, 244 tables in all, where every
// summary round and every judging pass used to build its own (352).
func TestOneRefTablePerMethod(t *testing.T) {
	type build struct {
		name, src string
		limit     int
		interproc bool
	}
	var builds []build
	for _, w := range workloads.All() {
		builds = append(builds, build{w.Name, w.Source, 100, false}, build{w.Name, w.Source, 0, true})
	}
	// 20050320 is the benchmark's corpusBase (bench/programs.go).
	for _, src := range progen.Corpus(20050320, 12, progen.CampaignConfig()) {
		builds = append(builds, build{"gen", src, 100, true})
	}
	tables := 0
	for _, b := range builds {
		built, err := pipeline.Compile(b.name, b.src, pipeline.Options{InlineLimit: b.limit, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		n, err := core.RefTablesOf(built.Program, core.Options{Mode: core.ModeFieldArray, Interprocedural: b.interproc})
		if err != nil {
			t.Fatalf("%s@%d: %v", b.name, b.limit, err)
		}
		if methods := len(built.Program.Methods()); n != methods {
			t.Errorf("%s@%d: %d reference tables for %d methods", b.name, b.limit, n, methods)
		}
		tables += n
	}
	if len(builds) != 24 || tables != 244 {
		t.Errorf("%d builds constructed %d reference tables, want 24 and 244", len(builds), tables)
	}
}
