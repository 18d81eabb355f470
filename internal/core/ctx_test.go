package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"satbelim/internal/codegen"
	"satbelim/internal/inline"
	"satbelim/internal/minijava"
	"satbelim/internal/verifier"

	"satbelim/internal/bytecode"
)

// compileSrc builds and verifies a program without analyzing it.
func compileSrc(t *testing.T, src string, inlineLimit int) *bytecode.Program {
	t.Helper()
	ast, err := minijava.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ch, err := minijava.Check("t.mj", ast)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	p, err := codegen.Compile(ch)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	p = inline.Apply(p, inline.Options{Limit: inlineLimit}).Program
	if err := verifier.VerifyProgram(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return p
}

// branchySrc is a long straight-line main of n conditional stores, so its
// fixed point takes several times doneCheckInterval block visits.
func branchySrc(n int) string {
	var b strings.Builder
	b.WriteString("class N { N next; }\nclass A {\n    static void main() {\n        N n = new N();\n        int s = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "        if (s < %d) { s = s + 1; n.next = new N(); }\n", i)
	}
	b.WriteString("        print(s);\n    }\n}\n")
	return b.String()
}

// TestCancelledContextDegradesPromptly is the deadline-plumbing
// regression test: a cancelled caller context must abort the analysis
// promptly (observed at block-visit boundaries) and report the methods as
// Degraded with DegradeCancelled — all barriers kept, no error.
func TestCancelledContextDegradesPromptly(t *testing.T) {
	p := compileSrc(t, branchySrc(4*doneCheckInterval), 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the analysis must not do real work
	start := time.Now()
	rep, err := AnalyzeProgramCtx(ctx, p, Options{Mode: ModeFieldArray}, 2)
	if err != nil {
		t.Fatalf("cancellation must degrade, not error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled analysis took %v, want prompt abort", elapsed)
	}
	deg := rep.Degraded()
	if len(deg) != len(rep.Methods) {
		t.Fatalf("%d of %d methods degraded, want all (cancelled before analysis)", len(deg), len(rep.Methods))
	}
	for _, m := range deg {
		if m.Degraded != DegradeCancelled {
			t.Errorf("%s Degraded = %q, want %q", m.Method.QualifiedName(), m.Degraded, DegradeCancelled)
		}
		if m.FieldSites == 0 && m.ArraySites == 0 && m.Method.Name == "main" {
			t.Error("degraded report should still count barrier sites")
		}
	}
	noElisions(t, p)
}

// endsAtPoll is a context that ends, with err, at the polls-th call of
// Done: it lets a test end a fixed point at a chosen poll, past the
// up-front check and any block visits before that poll.
type endsAtPoll struct {
	context.Context
	polls int
	err   error
	done  chan struct{}
}

func newEndsAtPoll(polls int, err error) *endsAtPoll {
	return &endsAtPoll{Context: context.Background(), polls: polls, err: err, done: make(chan struct{})}
}

func (c *endsAtPoll) Done() <-chan struct{} {
	if c.polls--; c.polls == 0 {
		close(c.done)
	}
	return c.done
}

func (c *endsAtPoll) Err() error {
	if c.polls <= 0 {
		return c.err
	}
	return nil
}

// fixpointOfMain runs main's fixed point of p under ctx, past analyze's
// up-front look at ctx, and returns why it stopped and after how many
// block visits.
func fixpointOfMain(ctx context.Context, p *bytecode.Program, opts Options) (DegradeReason, int) {
	px := newProgramIndex(p, opts)
	for i, m := range px.syms.Methods {
		if m.Name != "main" {
			continue
		}
		idx, err := px.of(i)
		if err != nil {
			panic(err)
		}
		a := newAnalyzer(ctx, px, newWorkspace(), m, idx, opts)
		return a.fixpoint(), a.visits
	}
	panic("no main")
}

// TestDegradeReasonFollowsTheContext: the degrade reason is what ctx.Err()
// says, wherever the stop is seen — at a method's start or at the fixed
// point's poll: an expired deadline gives DegradeDeadline, a cancel
// DegradeCancelled.
func TestDegradeReasonFollowsTheContext(t *testing.T) {
	p := compileSrc(t, branchySrc(4*doneCheckInterval), 0)
	opts := Options{Mode: ModeFieldArray}
	expired := func() context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		t.Cleanup(cancel)
		return ctx
	}
	cancelled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}

	for _, c := range []struct {
		ctx  func() context.Context
		want DegradeReason
	}{{expired, DegradeDeadline}, {cancelled, DegradeCancelled}} {
		// At method start: every method, before any block visit.
		rep, err := AnalyzeProgramCtx(c.ctx(), p, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rep.Methods {
			if m.Degraded != c.want || m.BlockVisits != 0 {
				t.Errorf("at method start: %s degraded %q after %d visits, want %q after 0",
					m.Method.QualifiedName(), m.Degraded, m.BlockVisits, c.want)
			}
		}
		noElisions(t, p)
		// In the fixed point: its first poll comes before any block.
		if got, visits := fixpointOfMain(c.ctx(), p, opts); got != c.want || visits != 1 {
			t.Errorf("first poll: stopped %q at visit %d, want %q at visit 1", got, visits, c.want)
		}
	}

	// Mid-fixpoint: the context ends at the second poll, after a full
	// interval of block visits.
	for err, want := range map[error]DegradeReason{
		context.DeadlineExceeded: DegradeDeadline,
		context.Canceled:         DegradeCancelled,
	} {
		if got, visits := fixpointOfMain(newEndsAtPoll(2, err), p, opts); got != want || visits != doneCheckInterval+1 {
			t.Errorf("second poll (%v): stopped %q at visit %d, want %q at visit %d",
				err, got, visits, want, doneCheckInterval+1)
		}
	}
}

// TestTimeDrivenClassification pins which degradations count as
// wall-clock conditions (never shareable across cached requests).
func TestTimeDrivenClassification(t *testing.T) {
	for reason, want := range map[DegradeReason]bool{
		DegradeNone:        false,
		DegradeVisitBudget: false,
		DegradeStateSize:   false,
		DegradePanic:       false,
		DegradeDeadline:    true,
		DegradeCancelled:   true,
	} {
		if got := reason.TimeDriven(); got != want {
			t.Errorf("TimeDriven(%q) = %v, want %v", reason, got, want)
		}
	}
}
