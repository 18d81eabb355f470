package verifier

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
)

// TestVerifyAllocs gates the verifier's allocation shape: one scratch
// stack serves every block of a method, reached blocks' entry stacks share
// one buffer, and the work queue is a ring of one slot per block, so a
// method with four times the blocks and four times the pushes per block
// allocates the same. (A fresh stack per block simulated, grown push by
// push, used to make the count grow with both.) The count must repeat
// exactly.
func TestVerifyAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account, a few objects more or less per run")
	}
	// f's body is n conditional statements, each a block of pushes and
	// arithmetic with a join after it; on the entry of every block the
	// stack is empty, so the shared entry buffer never grows.
	method := func(n, width int) (*bytecode.Program, *bytecode.Method) {
		var b strings.Builder
		b.WriteString("class A { static int f(int s) {\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "  if (s < %d) { s = s + (s * (s - %d));", i, i)
			for j := 0; j < width; j++ {
				fmt.Fprintf(&b, " s = s + %d;", j)
			}
			b.WriteString(" }\n")
		}
		b.WriteString("  return s;\n} }\n")
		p := compileSrc(t, b.String())
		return p, p.Method(bytecode.MethodRef{Class: "A", Name: "f"})
	}
	measure := func(p *bytecode.Program, m *bytecode.Method) float64 {
		verify := func() float64 {
			// The Go collector's first cycle allocates its workers.
			runtime.GC()
			// AllocsPerRun's warm-up call builds the method's Body.
			return testing.AllocsPerRun(5, func() {
				if err := Verify(p, m); err != nil {
					t.Fatal(err)
				}
			})
		}
		first, second := verify(), verify()
		if first != second {
			t.Errorf("allocation count does not repeat: %.0f then %.0f", first, second)
		}
		return first
	}
	base := measure(method(20, 2))
	for _, shape := range []struct{ n, width int }{{80, 2}, {20, 8}} {
		if got := measure(method(shape.n, shape.width)); got != base {
			t.Errorf("%d blocks × %d stores: %.0f allocs per Verify, want %.0f as for 20 × 2", shape.n, shape.width, got, base)
		}
	}
	t.Logf("%.0f allocs per Verify", base)
}
