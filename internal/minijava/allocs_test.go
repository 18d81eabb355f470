package minijava

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// allocsProgram is a main of n statements that between them use every
// statement form and most expression forms, over helper classes.
func allocsProgram(n int) string {
	var b strings.Builder
	b.WriteString("class N { int f; N next; N[] kids; int[] g; N(int v) { f = v; } int h(int a, int c) { return a * c; } }\n")
	b.WriteString("class A {\n  static void main() {\n    int x = 1; int y = 2; boolean on = true; N a = new N(3);\n    a.g = new int[4];\n")
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, "    x = x + a.f * (%d %% 7) - -y;\n", i)
		case 1:
			fmt.Fprintf(&b, "    if (x < %d && !on) { a.g[%d %% 4] = a.h(x, 2); } else { a.next = new N(x); }\n", i, i)
		case 2:
			fmt.Fprintf(&b, "    int z%d = a.g.length + a.f;\n", i)
		case 3:
			b.WriteString("    while (y > 0) { y = y - 1; }\n")
		case 4:
			b.WriteString("    for (int k = 0; k < 2; k = k + 1) { print(k); }\n")
		}
	}
	b.WriteString("    print(x);\n  }\n}\n")
	return b.String()
}

// TestParseAllocs gates the parser's allocation shape: every node and
// every node list is carved from a slab sized from the token stream, so a
// program with four times the statements takes the same slabs. What may
// grow is the scratch stacks lists are built on, by doubling, with the
// widest list. Before the slabs a parse allocated once per node and list.
// Like pipeline.TestCompileAllocs, the count must repeat exactly.
func TestParseAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account, a few objects more or less per run")
	}
	const n = 100
	small, large := allocsProgram(n), allocsProgram(4*n)
	measure := func(src string) float64 {
		parse := func() float64 {
			// The Go collector's first cycle allocates its workers.
			runtime.GC()
			return testing.AllocsPerRun(5, func() {
				if _, err := Parse("t.mj", src); err != nil {
					t.Fatal(err)
				}
			})
		}
		first, second := parse(), parse()
		if first != second {
			t.Errorf("allocation count does not repeat: %.0f then %.0f", first, second)
		}
		return first
	}
	a, b := measure(small), measure(large)
	t.Logf("%d statements: %.0f allocs per Parse; %d statements: %.0f", n, a, 4*n, b)
	// Three doublings of the statement scratch stack cover 4×.
	if b > a+3 {
		t.Errorf("Parse allocations grow with the program: %.0f for %d statements, %.0f for %d", a, n, b, 4*n)
	}
	if a > 60 {
		t.Errorf("%.0f allocs per Parse of %d statements, want at most 60 (one per node type and list type, plus the token slice)", a, n)
	}
}
