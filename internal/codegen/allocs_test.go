package codegen

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"satbelim/internal/minijava"
)

// TestGenerateAllocs gates the code generator's allocation shape: a
// program takes its Program, one Builder and one array each for its
// classes, field lists, method lists and slot types, and a method its
// Method and Code, whatever the method's size. The Builder's instruction
// buffer and label table are the program's, reused by every method and
// grown to the largest, so a method with four times the statements and
// labels may cost only their growth. (Labels used to be strings in two
// maps, each with its own fixup list, and a program took 250 allocations
// on the benchmark's corpus where it now takes about 35.) The count must
// repeat exactly.
func TestGenerateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account, a few objects more or less per run")
	}
	// f's body is n statements, each a branch or a loop with a
	// short-circuit condition: two or three labels and about twenty
	// instructions a statement.
	checked := func(n int) *minijava.Checked {
		var b strings.Builder
		b.WriteString("class A { int v; A next; static int f(int s, A a) {\n")
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				fmt.Fprintf(&b, "  if (s < %d && a != null) { a.v = s + %d; } else { a.next = new A(); }\n", i, i)
			} else {
				fmt.Fprintf(&b, "  while (s > %d || s == 0) { s = s - 1; }\n", i)
			}
		}
		b.WriteString("  return s;\n} }\n")
		ast, err := minijava.Parse("t.mj", b.String())
		if err != nil {
			t.Fatal(err)
		}
		ch, err := minijava.Check("t.mj", ast)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	measure := func(ch *minijava.Checked) float64 {
		generate := func() float64 {
			// The Go collector's first cycle allocates its workers.
			runtime.GC()
			return testing.AllocsPerRun(5, func() {
				if _, err := Compile(ch); err != nil {
					t.Fatal(err)
				}
			})
		}
		first, second := generate(), generate()
		if first != second {
			t.Errorf("allocation count does not repeat: %.0f then %.0f", first, second)
		}
		return first
	}
	const n = 20
	small, large := measure(checked(n)), measure(checked(4*n))
	t.Logf("%d statements: %.0f allocs per Compile; %d statements: %.0f", n, small, 4*n, large)
	// Two doublings each of the label table and of the instruction buffer
	// cover 4×.
	if large > small+4 {
		t.Errorf("Compile allocations grow with the method: %.0f for %d statements, %.0f for %d", small, n, large, 4*n)
	}
	if small > 24 {
		t.Errorf("%.0f allocs per Compile of %d statements, want at most 24", small, n)
	}
}
