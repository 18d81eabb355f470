package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/workloads"
)

// graphReach returns which blocks of g a path from block 0 reaches.
func graphReach(g *bytecode.Graph) []bool {
	seen := make([]bool, len(g.Blocks))
	seen[0] = true
	stack := []int{0}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[id].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// checkEntriesOnlyAtJoins checks what a converged fixed point leaves
// behind: an entry state for exactly the reached joins, none of them a
// workspace state, no single-predecessor entry still pending, and a
// reached row equal to graph reachability from block 0.
func checkEntriesOnlyAtJoins(a *analyzer) error {
	ws := a.ws
	reach := graphReach(a.Graph)
	if !slices.Equal(ws.reached, reach) {
		return fmt.Errorf("reached %v, graph reachability %v", ws.reached, reach)
	}
	for id, s := range a.entry {
		if want := a.isJoin(id) && ws.reached[id]; (s != nil) != want {
			return fmt.Errorf("block %d (join %v, reached %v) has entry %v", id, a.isJoin(id), ws.reached[id], s != nil)
		}
		if s != nil && (s == &ws.scratch || s == &ws.spare || slices.Contains(ws.extra, s)) {
			return fmt.Errorf("block %d's entry state is the workspace's", id)
		}
		if p := ws.pending[id]; p != nil {
			return fmt.Errorf("block %d is still pending", id)
		}
	}
	return nil
}

// TestEntriesOnlyAtJoins runs every method's fixed points over the six
// workloads — at inline limit 100 in mode A and at limit 0 with summaries,
// each with and without null-or-same and rearrange; in summary mode as
// well as judging mode — on one shared workspace, and checks after each
// that the fixed point kept entry states only at the joins it reached and
// left no single-predecessor entry pending.
func TestEntriesOnlyAtJoins(t *testing.T) {
	for _, w := range workloads.All() {
		for _, limit := range []int{100, 0} {
			for _, ext := range []bool{false, true} {
				opts := Options{Mode: ModeFieldArray, Interprocedural: limit == 0, NullOrSame: ext, Rearrange: ext}
				name := fmt.Sprintf("%s@%d ext=%v", w.Name, limit, ext)
				p := compileSrc(t, w.Source, limit)
				px := newProgramIndex(p, opts)
				if opts.Interprocedural {
					opts.Summaries = computeSummaries(context.Background(), px, opts)
				}
				modes := []bool{false}
				if opts.Interprocedural {
					modes = append(modes, true)
				}
				ws := newWorkspace()
				for i, m := range p.Methods() {
					idx, err := px.of(i)
					if err != nil {
						t.Fatal(err)
					}
					for _, summary := range modes {
						a := newAnalyzer(context.Background(), px, ws, m, idx, opts)
						a.summaries = opts.Summaries
						if summary {
							a.rec = newSummaryRecorder(a.refs, a.slots)
						}
						if r := a.fixpoint(); r != DegradeNone {
							t.Fatalf("%s: %s degraded: %s", name, m.QualifiedName(), r)
						}
						if err := checkEntriesOnlyAtJoins(a); err != nil {
							t.Errorf("%s: %s (summary mode %v): %v", name, m.QualifiedName(), summary, err)
						}
					}
				}
			}
		}
	}
}
