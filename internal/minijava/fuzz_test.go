package minijava_test

import (
	"testing"

	"satbelim/internal/codegen"
	"satbelim/internal/minijava"
	"satbelim/internal/progen"
	"satbelim/internal/verifier"
)

// fuzzSeeds is FuzzParse's seed corpus (TestTokenStreamGolden hashes its
// token streams too).
func fuzzSeeds() []string {
	seeds := []string{
		"class A { static void main() { print(1); } }",
		`class N { N next; }
class A { static void main() { N n = new N(); n.next = new N(); } }`,
		`class W { W next; void work() { this.next = new W(); } }
class A { static void main() { W w = new W(); spawn w.work(); } }`,
		"class A { static void main() { int[] a = new int[3]; a[0] = 1; print(a[0]); } }",
		"class A {",
		"x = ;;",
		// Where byte offsets and rune columns part ways: multibyte
		// identifiers, non-ASCII inside both comment forms (with a wide
		// space and a line separator), and stray bytes that are not UTF-8.
		"class Größe { int größe_2; static void main() { Größe π = new Größe(); π.größe_2 = 1; print(π.größe_2); } }",
		"class A { // ключ → значение\n static void main() { /* 漢字\u00a0\u2028 é */ print(1); } } // конец",
		"class A { static void main() { int x\u00a0=\u20031; /* 漢 */ print(x); } }",
		"class A { static void main() { print(1); \xff } }",
		"class A\xc3 { }",
		"// \xe2\x82\n/* \xf0\x9f */ class \xe6\xbc\xa2\xe6 { }",
		"int é = 1 \x80\x80 2;",
	}
	seeds = append(seeds, progen.Corpus(9000, 3, progen.DefaultConfig())...)
	// Campaign-config sources add the strided-init, alloc-reuse,
	// aliasing, and escape-store idioms the metamorphic harness
	// generates from (cmd/satbtest).
	return append(seeds, progen.Corpus(17000, 3, progen.CampaignConfig())...)
}

// FuzzParse feeds arbitrary bytes through the frontend. The contract
// under fuzzing is crash-freedom plus a pipeline invariant: any input
// that parses and typechecks must also compile to bytecode that passes
// the verifier — the frontend may reject, but it must never hand the
// backend an ill-formed program.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Pathological nesting makes the recursive-descent parser's cost
		// quadratic-ish; bound input size to keep iterations fast.
		if len(src) > 1<<12 {
			t.Skip()
		}
		ast, err := minijava.Parse("fuzz.mj", src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		checked, err := minijava.Check("fuzz.mj", ast)
		if err != nil {
			return
		}
		prog, err := codegen.Compile(checked)
		if err != nil {
			t.Fatalf("checked program failed codegen: %v\nsource:\n%s", err, src)
		}
		if err := verifier.VerifyProgram(prog); err != nil {
			t.Fatalf("checked program failed verification: %v\nsource:\n%s", err, src)
		}
	})
}

// TestFuzzSeedsAreInteresting sanity-checks the seed corpus exercises
// both accept and reject paths when run as a plain test (go test runs
// the fuzz target over seeds only).
func TestFuzzSeedsAreInteresting(t *testing.T) {
	accepted, rejected := 0, 0
	seeds := []string{
		"class A { static void main() { print(1); } }",
		"class A {",
	}
	for _, s := range seeds {
		if _, err := minijava.Parse("s.mj", s); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Errorf("seed corpus should cover accept and reject: %d/%d", accepted, rejected)
	}
}
