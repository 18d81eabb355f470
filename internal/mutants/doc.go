// Package mutants holds the soundness mutants of the analysis and the
// harness that proves the validation layers kill them. A mutant is a
// source file, not a knob: each row of the table in rows_test.go names a
// file, an exact original text that occurs in it once, its replacement,
// and the tests that must fail on the result. The harness writes the
// mutated file and a `go build -overlay` JSON under a temporary
// directory and runs `go test -overlay` (and, for the campaign column,
// an overlay build of cmd/satbtest) against it, so no build of any
// command contains an unsound branch.
//
//	go test ./internal/mutants                                    # declared killers, in tier-1
//	go test ./internal/mutants -run TestMutantMatrix -mutants.matrix  # every row × every layer
//
// The package has no non-test code.
package mutants
