// Package satbelim is a complete Go reproduction of "Compile-Time
// Concurrent Marking Write Barrier Removal" (V. Krishna Nandivada and
// David Detlefs, CGO 2005): static analyses that remove snapshot-at-the-
// beginning write barriers for provably initializing stores, together
// with every substrate the paper's evaluation needs — a MiniJava
// compiler, a bytecode VM, SATB and incremental-update collectors, and
// the six benchmark workloads.
//
// The root package carries the benchmark harness (bench_test.go), one
// benchmark per table and figure of the paper's evaluation. The library
// lives under internal/ (see README.md for the architecture map and
// DESIGN.md §3 for every module), and five command-line tools expose it:
//
//	cmd/satbc      compile + analyze MiniJava, print elision reports
//	cmd/satbvm     run programs under chosen barriers and collectors
//	cmd/satbbench  regenerate the paper's tables and figures
//	cmd/satbd      serve compile/analyze/run over HTTP, or load-test it
//	cmd/satbtest   run metamorphic campaigns over generated programs
package satbelim
