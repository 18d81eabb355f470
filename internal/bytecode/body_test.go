package bytecode_test

import (
	"reflect"
	"sync"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/inline"
	"satbelim/internal/workloads"
)

// countGraphs runs f and returns how many graphs it built.
func countGraphs(f func()) int {
	var mu sync.Mutex
	n := 0
	bytecode.SetGraphHook(func(*bytecode.Method) { mu.Lock(); n++; mu.Unlock() })
	defer bytecode.SetGraphHook(nil)
	f()
	return n
}

// TestBodiesAreNeverStale: a record describes the code it was built from.
// Every record of a program is built before the inliner rewrites it in
// place; none may survive the rewrite, so each record read afterwards equals
// a fresh build from the inlined code. A Clone starts with no record, and
// AddClass drops every record.
func TestBodiesAreNeverStale(t *testing.T) {
	for name, src := range corpus() {
		p := compile(t, src)
		if err := p.Validate(); err != nil { // builds every record of p
			t.Fatalf("%s: %v", name, err)
		}
		for _, limit := range []int{0, 25, 1000} {
			q := p.Clone()
			if err := q.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			inline.Apply(q, inline.Options{Limit: limit})
			for i, m := range q.Methods() {
				got := q.Body(i)
				if got.Err != nil || got.Graph.Method != m || !reflect.DeepEqual(got, bytecode.NewBody(q, m)) {
					t.Errorf("%s at limit %d: the record of %s is not a fresh build of its inlined code", name, limit, m.QualifiedName())
				}
			}
		}

		c := p.Clone()
		if n := countGraphs(func() { c.Validate() }); n != len(c.Methods()) {
			t.Errorf("%s: the clone's first Validate built %d graphs for %d methods", name, n, len(c.Methods()))
		}
		for i, m := range c.Methods() {
			if c.Body(i) == p.Body(i) || c.Body(i).Graph.Method != m {
				t.Errorf("%s: the clone reads the original's record of %s", name, m.QualifiedName())
			}
		}

		before := p.Body(0)
		p.AddClass(p.SortedClasses()[0])
		if p.Body(0) == before {
			t.Errorf("%s: AddClass kept the records", name)
		}
		if n := countGraphs(func() { p.Validate() }); n != len(p.Methods())-1 {
			t.Errorf("%s: after AddClass and one lookup, Validate built %d graphs for %d methods", name, n, len(p.Methods()))
		}
	}
}

// TestFirstBodyUseIsRaceFree: eight goroutines ask for every record of a
// program nobody has asked yet (run under -race); they all get the same
// record, and it is a fresh build.
func TestFirstBodyUseIsRaceFree(t *testing.T) {
	src := workloads.JBB().Source
	for round := 0; round < 20; round++ {
		p := unlinked(t, src)
		got := make([][]*bytecode.Body, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range p.Methods() {
					got[g] = append(got[g], p.Body(i))
				}
			}()
		}
		wg.Wait()
		for i, m := range p.Methods() {
			for g := range got {
				if got[g][i] != got[0][i] {
					t.Fatalf("goroutines %d and 0 hold different records of %s", g, m.QualifiedName())
				}
			}
			if !reflect.DeepEqual(got[0][i], bytecode.NewBody(p, m)) {
				t.Errorf("the kept record of %s is not a fresh build", m.QualifiedName())
			}
		}
	}
}

// TestBodyRejectsWhatNoEngineCanRun: an opcode with no mnemonic, a
// conditional branch whose fall-through leaves the method, an operand index
// outside the method's pool and a pool entry of the wrong kind for its
// opcode are structural faults, so no engine ever meets any of them.
func TestBodyRejectsWhatNoEngineCanRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool []bytecode.Operand
		code []bytecode.Instr
		want string
	}{
		{"unknown opcode", nil, []bytecode.Instr{{Op: 200}, {Op: bytecode.OpReturn}}, "T.main: pc 0: unknown opcode op(200)"},
		{"branch off the end", nil, []bytecode.Instr{{Op: bytecode.OpConstBool}, {Op: bytecode.OpIfTrue}}, "T.main: control falls off the end of the method"},
		{"operand outside the pool", []bytecode.Operand{{Type: bytecode.ClassType("T")}},
			[]bytecode.Instr{{Op: bytecode.OpNewInstance, Ref: 1}, {Op: bytecode.OpPop}, {Op: bytecode.OpReturn}},
			"T.main: pc 0: operand #1 out of range [0,1)"},
		{"negative operand", nil, []bytecode.Instr{{Op: bytecode.OpInvoke, Ref: -1}, {Op: bytecode.OpReturn}},
			"T.main: pc 0: operand #-1 out of range [0,0)"},
		{"getfield of a type entry", []bytecode.Operand{{Type: bytecode.ClassType("T")}},
			[]bytecode.Instr{{Op: bytecode.OpConstNull}, {Op: bytecode.OpGetField}, {Op: bytecode.OpPop}, {Op: bytecode.OpReturn}},
			"T.main: pc 1: getfield of type entry #0 (T)"},
		{"invoke of a type entry", []bytecode.Operand{{Type: bytecode.Int}},
			[]bytecode.Instr{{Op: bytecode.OpInvoke}, {Op: bytecode.OpReturn}},
			"T.main: pc 0: invoke of type entry #0 (int)"},
		{"newinstance of a name entry", []bytecode.Operand{{Class: "T", Name: "main"}},
			[]bytecode.Instr{{Op: bytecode.OpNewInstance}, {Op: bytecode.OpPop}, {Op: bytecode.OpReturn}},
			"T.main: pc 0: bad newinstance type <nil-type>"},
	} {
		b := bytecode.NewBuilder("T", "main", true)
		for _, o := range tc.pool {
			b.Operand(o)
		}
		for _, in := range tc.code {
			b.Emit(in)
		}
		m := b.Build()
		p := bytecode.NewProgram()
		p.AddClass(&bytecode.Class{Name: "T", Methods: []*bytecode.Method{m}})
		if err := p.Body(0).Err; err == nil || err.Error() != tc.want {
			t.Errorf("%s: body fault %v, want %q", tc.name, err, tc.want)
		}
	}
}
