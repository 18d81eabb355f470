package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"satbelim/internal/bytecode"
)

// loopSrc has a genuine fixed point (a loop) so budgets can bite.
const loopSrc = `
class N { N next; }
class A {
    static void main() {
        for (int i = 0; i < 10; i = i + 1) {
            N n = new N();
            n.next = new N();
        }
    }
}
`

// noElisions asserts every elision flag on every method is clear.
func noElisions(t *testing.T, p *bytecode.Program) {
	t.Helper()
	for _, m := range p.Methods() {
		for pc, v := range verdictsOf(p, m) {
			if v != bytecode.VerdictNone {
				t.Errorf("%s pc %d: elision flag survived degradation", m.QualifiedName(), pc)
			}
		}
	}
}

func TestVisitBudgetDegradesConservatively(t *testing.T) {
	p, rep := analyzeSrc(t, loopSrc, 100, Options{Mode: ModeFieldArray, MaxBlockVisits: 1})
	main := rep.Methods[len(rep.Methods)-1]
	for _, m := range rep.Methods {
		if m.Method.Name == "main" {
			main = m
		}
	}
	if main.Degraded != DegradeVisitBudget {
		t.Fatalf("main Degraded = %q, want %q", main.Degraded, DegradeVisitBudget)
	}
	if main.Converged {
		t.Error("degraded method still reports Converged")
	}
	if main.FieldSites == 0 {
		t.Error("degraded report should still count barrier sites")
	}
	noElisions(t, p)
	if len(rep.Degraded()) == 0 {
		t.Error("ProgramReport.Degraded() should list the method")
	}
	if !strings.Contains(rep.String(), "degraded to all-barriers") {
		t.Errorf("report rendering should mention degradation:\n%s", rep)
	}
}

func TestStateSizeBudgetDegrades(t *testing.T) {
	_, rep := analyzeSrc(t, loopSrc, 100, Options{Mode: ModeFieldArray, MaxStateSize: 1})
	found := false
	for _, m := range rep.Methods {
		if m.Degraded == DegradeStateSize {
			found = true
		}
	}
	if !found {
		t.Fatal("no method degraded under MaxStateSize=1")
	}
}

// TestDeadlineDegrades: a wall-clock bound rides on the caller's context.
// One that expires before or during the analysis degrades the long method
// with DegradeDeadline, never DegradeCancelled.
func TestDeadlineDegrades(t *testing.T) {
	p := compileSrc(t, branchySrc(2*doneCheckInterval), 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	rep, err := AnalyzeProgramCtx(ctx, p, Options{Mode: ModeFieldArray}, 1)
	if err != nil {
		t.Fatalf("a deadline must degrade, not error: %v", err)
	}
	found := false
	for _, m := range rep.Methods {
		switch m.Degraded {
		case DegradeDeadline:
			found = true
		case DegradeNone:
		default:
			t.Errorf("%s degraded %q under an expired deadline", m.Method.QualifiedName(), m.Degraded)
		}
	}
	if !found {
		t.Fatal("no method degraded under a 1ns deadline")
	}
}

func TestPanicDegradesConservatively(t *testing.T) {
	// A pop from an empty stack panics inside simulate. Unverified programs
	// are the only way to reach this; the analysis must degrade the method,
	// not take the pipeline down.
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	b := bytecode.NewBuilder("T", "boom", true)
	b.Op(bytecode.OpPop)
	b.Return()
	m := b.Build()
	cls.Methods = append(cls.Methods, m)
	p.AddClass(cls)

	prep, err := AnalyzeProgram(p, Options{Mode: ModeFieldArray})
	if err != nil {
		t.Fatalf("panic should degrade, not error: %v", err)
	}
	rep := prep.Methods[0]
	if rep.Degraded != DegradePanic {
		t.Fatalf("Degraded = %q, want %q", rep.Degraded, DegradePanic)
	}
	if !strings.Contains(rep.DegradeDetail, "goroutine") && !strings.Contains(rep.DegradeDetail, ".go:") {
		t.Errorf("DegradeDetail should carry a captured stack, got %q", rep.DegradeDetail)
	}
	noElisions(t, p)
}

// TestGenerousBudgetsChangeNothing: budgets far above what the program
// needs, and a context with an hour to spare, must leave the analysis
// result bit-identical to no budgets under no deadline.
func TestGenerousBudgetsChangeNothing(t *testing.T) {
	p1, r1 := analyzeSrc(t, loopSrc, 100, Options{Mode: ModeFieldArray, NullOrSame: true})
	p2 := compileSrc(t, loopSrc, 100)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	r2, err := AnalyzeProgramCtx(ctx, p2, Options{
		Mode: ModeFieldArray, NullOrSame: true,
		MaxStateSize: 1 << 20, MaxBlockVisits: 1 << 20,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("generous budgets changed the report:\n%s\nvs\n%s", r1, r2)
	}
	m1, m2 := p1.Methods(), p2.Methods()
	for i := range m1 {
		if !reflect.DeepEqual(verdictsOf(p1, m1[i]), verdictsOf(p2, m2[i])) {
			t.Errorf("%s: elision bits differ", m1[i].QualifiedName())
		}
	}
}

// TestSummaryPanicDegrades: T.main → T.f, where T.f pops an empty stack.
// Summarizing T.f panics like judging it does; the summary fixed
// point must answer the worst summary instead of taking the build down,
// and judging then degrades T.f on its own — also on a judging worker
// goroutine, where no caller's recover reaches. T.g is a second component
// to summarize.
func TestSummaryPanicDegrades(t *testing.T) {
	p := bytecode.NewProgram()
	tt := bytecode.ClassType("T")
	method := func(name string, param bool, calls ...string) *bytecode.Method {
		b := bytecode.NewBuilder("T", name, true)
		if param {
			b.AddParam(tt)
		}
		for _, c := range calls {
			if c == "f" {
				b.Null()
			}
			b.Invoke(bytecode.MethodRef{Class: "T", Name: c})
		}
		if name == "f" {
			b.Op(bytecode.OpPop) // the stack is empty
		}
		b.Return()
		return b.Build()
	}
	p.AddClass(&bytecode.Class{Name: "T", Methods: []*bytecode.Method{
		method("main", false, "f", "g"), method("f", true), method("g", false)}})
	f := bytecode.MethodRef{Class: "T", Name: "f"}
	opts := Options{Mode: ModeFieldArray, Interprocedural: true}
	for _, workers := range []int{1, 4} {
		sums, err := ComputeSummariesParallel(p, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if want := worstSummary(p.Method(f)); !reflect.DeepEqual(sums.Of(p, f), want) {
			t.Errorf("workers=%d: summary of T.f = %+v, want the worst %+v", workers, sums.Of(p, f), want)
		}
		rep, err := AnalyzeProgramCtx(context.Background(), p, opts, workers)
		if err != nil {
			t.Fatalf("workers=%d: a panic should degrade, not error: %v", workers, err)
		}
		for _, mr := range rep.Methods {
			want := DegradeNone
			if mr.Method.Name == "f" {
				want = DegradePanic
			}
			if mr.Degraded != want {
				t.Errorf("workers=%d: %s degraded %q, want %q", workers, mr.Method.QualifiedName(), mr.Degraded, want)
			}
		}
	}
}
