package minijava

import "sync"

// slab hands out values of one type carved from shared chunks, so that the
// front end allocates once per node type rather than once per node. A
// chunk is never regrown, so a pointer or slice into it stays valid until
// the arena is released; a slab that runs past its chunk takes one twice
// the size.
type slab[T any] struct {
	buf    []T
	carved int // values handed out since the last reset
}

// alloc returns a pointer to a copy of v in the slab.
func (s *slab[T]) alloc(v T) *T {
	if len(s.buf) == cap(s.buf) {
		s.grow(1)
	}
	s.buf = append(s.buf, v)
	s.carved++
	return &s.buf[len(s.buf)-1]
}

// copyOf returns a copy of xs in the slab whose capacity is its length, so
// an append to it never writes into a neighbour; nil when xs is empty.
func (s *slab[T]) copyOf(xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < len(xs) {
		s.grow(len(xs))
	}
	n := len(s.buf)
	s.buf = append(s.buf, xs...)
	s.carved += len(xs)
	return s.buf[n:len(s.buf):len(s.buf)]
}

func (s *slab[T]) grow(need int) {
	s.buf = make([]T, 0, max(need, 2*cap(s.buf), 8))
}

// reset zeroes what was handed out and empties the slab. A slab that ran
// past its chunk takes one that holds everything it handed out, so the
// next parse of as large a program takes no chunk at all.
func (s *slab[T]) reset() {
	if s.carved > cap(s.buf) {
		s.buf = make([]T, 0, s.carved)
	} else {
		clear(s.buf)
		s.buf = s.buf[:0]
	}
	s.carved = 0
}

// list builds variable-length node lists (a block's statements, a call's
// arguments, …) on one scratch stack and carves each finished list from a
// slab at its exact length. Lists nest — a block inside a block — so a
// caller remembers mark() and pops back to it.
type list[T any] struct {
	scratch []T
	slab    slab[T]
}

func (l *list[T]) mark() int { return len(l.scratch) }
func (l *list[T]) push(x T)  { l.scratch = append(l.scratch, x) }

// pop returns the values pushed since m as a slab-carved list and drops
// them from the scratch stack.
func (l *list[T]) pop(m int) []T {
	xs := l.slab.copyOf(l.scratch[m:])
	l.scratch = l.scratch[:m]
	return xs
}

// reset zeroes the scratch stack, which a failed parse may leave full, and
// resets the slab.
func (l *list[T]) reset() {
	clear(l.scratch[:cap(l.scratch)])
	l.scratch = l.scratch[:0]
	l.slab.reset()
}

// arena is a parse's memory: the tokens it lexes into, its node slabs and
// its lists. A Program holds its arena until Release, which resets it and
// hands it to the pool the next Parse draws from.
type arena struct {
	toks []Token

	classes   slab[ClassDecl]
	fields    slab[FieldDecl]
	methods   slab[MethodDecl]
	params    slab[Param]
	types     slab[TypeExpr]
	blocks    slab[Block]
	varDecls  slab[VarDecl]
	ifs       slab[If]
	whiles    slab[While]
	fors      slab[For]
	returns   slab[Return]
	exprStmts slab[ExprStmt]
	prints    slab[Print]
	spawns    slab[Spawn]
	assigns   slab[Assign]
	intLits   slab[IntLit]
	boolLits  slab[BoolLit]
	nullLits  slab[NullLit]
	thises    slab[This]
	idents    slab[Ident]
	fieldAccs slab[FieldAccess]
	indexes   slab[Index]
	lengths   slab[Length]
	newObjs   slab[NewObject]
	newArrs   slab[NewArray]
	calls     slab[Call]
	unaries   slab[Unary]
	binaries  slab[Binary]

	classList  list[*ClassDecl]
	fieldList  list[*FieldDecl]
	methodList list[*MethodDecl]
	paramList  list[*Param]
	stmtList   list[Stmt]
	argList    list[Expr]
}

// reset zeroes and empties every slab and list; the tokens hold no
// pointer and are overwritten by the next parse.
func (a *arena) reset() {
	for _, s := range [...]interface{ reset() }{
		&a.classes, &a.fields, &a.methods, &a.params, &a.types, &a.blocks, &a.varDecls,
		&a.ifs, &a.whiles, &a.fors, &a.returns, &a.exprStmts, &a.prints, &a.spawns,
		&a.assigns, &a.intLits, &a.boolLits, &a.nullLits, &a.thises, &a.idents,
		&a.fieldAccs, &a.indexes, &a.lengths, &a.newObjs, &a.newArrs, &a.calls,
		&a.unaries, &a.binaries,
		&a.classList, &a.fieldList, &a.methodList, &a.paramList, &a.stmtList, &a.argList,
	} {
		s.reset()
	}
}

// arenaMaxTokens bounds the parses whose arena is pooled: about three times
// the token buffer of the largest program the benchmark parses (a generated
// one of 6.4 KB and 2 208 tokens, lexed into room for 2 577), so each of
// those finds its memory again, while a larger parse, such as a daemon
// request of a megabyte, leaves its arena to the Go collector and pins
// nothing.
const arenaMaxTokens = 1 << 13

// arenas holds the arenas of released parses for the next Parse. An idle
// arena the pool drops at the Go collector's second cycle.
var arenas = sync.Pool{New: func() any { return new(arena) }}

// release resets the arena and pools it, unless its token buffer holds
// more than arenaMaxTokens tokens.
func (a *arena) release() {
	if cap(a.toks) > arenaMaxTokens {
		return
	}
	a.reset()
	arenas.Put(a)
}
