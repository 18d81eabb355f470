package mutants

// rows are the mutants: each breaks one proof obligation of the analysis,
// or of a pass it relies on, and names the tests that must catch it. To add one, copy a row, quote
// the original text exactly (enough of it to occur once in the file), and
// declare the cheapest tests that fail on it; `go test -run TestMutants`
// then proves they do, and TestMutantMatrix records what else does.
var rows = []row{
	{
		name: "skip-b-demotion",
		file: "internal/domain/transfer.go",
		original: `	s.renameAlloc(ra, rb)
`,
		mutant: ``,
		rationale: "a re-executed allocation site leaves the previous object on the unique A name, " +
			"which inherits the fresh object's all-null facts (paper §3.2)",
		killers: []check{
			{pkg: "internal/core", run: "^TestLoopAllocDemotionLimitsElision$", want: "soundness violation at Main.main"},
			{pkg: "internal/pipeline", run: "^TestVerdictDumpGolden$"},
		},
		campaign: &campaign{maxRepro: 25},
	},
	{
		name: "trust-all-summaries",
		file: "internal/core/summaries.go",
		original: `		if !changed {
`,
		mutant: `		if !changed || true {
`,
		rationale: "a cyclic callgraph component stops after one round, so a member summarized before " +
			"its cycle-mate keeps trusting the mate's stale optimistic summary",
		killers: []check{
			{pkg: "internal/core", run: "^TestCyclicSummaryRerunCompromisesEarlierMember$"},
			{pkg: "internal/pipeline", run: "^TestSummaryDumpGolden$"},
		},
		campaign: &campaign{args: []string{"-interproc"}, maxRepro: 40},
	},
	{
		name: "summaries-top-down",
		file: "internal/core/summaries.go",
		original: `	for ci := range cond.SCCs {
		if needed[ci] {
`,
		mutant: `	for ci := len(cond.SCCs) - 1; ci >= 0; ci-- {
		if needed[ci] {
`,
		rationale: "callgraph components are summarized top-down, so a caller's summary is computed " +
			"over its callees' optimistic starting summaries instead of their final ones",
		killers: []check{
			{pkg: "internal/core", run: "^TestSummaryTransitiveThroughHelperChain$", want: "exactly the read-only-chain store"},
			{pkg: "internal/core", run: "^TestOnDemandSummariesChangeNothing$", want: "among all methods"},
			{pkg: "internal/pipeline", run: "^TestSummaryDumpGolden$"},
			{pkg: "internal/pipeline", run: "^TestInterprocDifferentialSweep$", want: "soundness violation"},
		},
		campaign: &campaign{args: []string{"-interproc"}, maxRepro: 30},
	},
	{
		name: "entry-block-not-a-join",
		file: "internal/core/analysis.go",
		original: `				cur.CopyFrom(spare)
`,
		mutant: `				if tgt == 0 {
					spare = out
				}
				cur.CopyFrom(spare)
`,
		rationale: "an edge into block 0 overwrites the method entry's state instead of joining it, " +
			"so a loop at pc 0 forgets what its arguments arrive with",
		// The 40-seed campaign never makes a method whose first statement
		// is a loop, so only these catch it. The judge's inductiveness
		// check sees the initial state fall outside block 0's entry and
		// degrades the method before any program runs; the counting loop
		// then runs out of visits.
		killers: []check{
			{pkg: "internal/core", run: "^TestJudgedStatesAreInductive$", want: "T.g degraded not-inductive"},
			{pkg: "internal/core", run: "^TestEntryBlockIsAJoin$", want: `T.g degraded "visit-budget"`},
			{pkg: "internal/core", run: "^FuzzAnalyze$", want: "T.g degraded not-inductive"},
		},
	},
	{
		name: "inline-foreign-pool-verbatim",
		file: "internal/inline/inline.go",
		original: `		poolBase = int32(m.Pool.Len())
`,
		mutant: ``,
		rationale: "a callee with an operand pool of its own is spliced in with its operand indices " +
			"unchanged, so they name the caller's entries: other fields, methods and types",
		// The code generator gives a program one pool, so no compiled
		// program meets this path; only hand-built ones do.
		killers: []check{
			{pkg: "internal/inline", run: "^TestInlineAcrossPools$", want: "across pools, T.main is"},
		},
	},
}

// layers are the validation layers of the wide matrix, each a set of
// tests; a layer kills a mutant when any of its tests fails. The
// metamorphic campaign is the matrix's own column.
var layers = []layer{
	{name: "oracle", checks: []check{
		{pkg: "internal/workloads", run: "^TestOracle"},
		{pkg: "internal/vm", run: "^TestOracle"},
	}},
	{name: "snapshot-invariant", checks: []check{
		{pkg: "internal/vm", run: "Invariant"},
		{pkg: "internal/progen", run: "^TestGeneratedProgramsSATBInvariant$"},
	}},
	{name: "differentials", checks: []check{
		{pkg: "internal/vm", run: "^(TestEngineParity|TestEngineDifferential|TestHorizonParityMatrix|TestFlavorOracle)"},
		{pkg: "internal/pipeline", run: "^(TestDifferential|TestInterprocDifferentialSweep)"},
		{pkg: "internal/workloads", run: "^TestBarrierFlavorMatrixRelations$"},
	}},
	{name: "golden", checks: []check{
		{pkg: "internal/pipeline", run: "DumpGolden$"},
		{pkg: "internal/workloads", run: "^TestPaperTableGolden"},
	}},
	{name: "fuzz-seeds", checks: []check{
		{pkg: "internal/core", run: "^FuzzAnalyze$"},
	}},
}
