package minijava

// slab hands out values of one type carved from shared chunks, so that the
// front end allocates once per node type rather than once per node. A
// chunk is never regrown, so a pointer or slice into it stays valid. The
// first chunk holds hint values; a slab that runs past it takes a chunk
// twice the size of the last.
type slab[T any] struct {
	buf  []T
	hint int
}

// alloc returns a pointer to a copy of v in the slab.
func (s *slab[T]) alloc(v T) *T {
	if len(s.buf) == cap(s.buf) {
		s.grow(1)
	}
	s.buf = append(s.buf, v)
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
	return s.buf[n:len(s.buf):len(s.buf)]
}

func (s *slab[T]) grow(need int) {
	s.buf = make([]T, 0, max(need, s.hint, 2*cap(s.buf), 8))
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

// arena holds a parse's node slabs.
type arena struct {
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

// size sets each slab's first chunk from the token stream. Every count is
// read off a token and its neighbours — an integer token is an IntLit, an
// `if` an If, a `{` inside a class a Block, an identifier after `.` a
// FieldAccess or (before `(`) a Call, an identifier after a type a
// declared name — so on a well-formed program each slab takes one chunk
// that it fills, and the list counts are upper bounds.
func (a *arena) size(src string, toks []Token) {
	var n struct {
		classes, fields, methods, params, types, blocks, varDecls    int
		ifs, whiles, fors, returns, prints, spawns, assigns          int
		intLits, boolLits, nullLits, thises, idents, fieldAccs       int
		indexes, lengths, newObjs, newArrs, calls, unaries, binaries int
		semis, elses, commas                                         int
	}
	braces, parens := 0, 0 // nesting; parens counted only in a class body
	for i, t := range toks {
		var prev, next Token
		if i > 0 {
			prev = toks[i-1]
		}
		if i+1 < len(toks) {
			next = toks[i+1]
		}
		switch t.Kind {
		case TokInt:
			n.intLits++
		case TokIdent:
			switch {
			case isKwTok(src, prev, "class"):
			case isPunctTok(src, prev, "."):
				if isPunctTok(src, next, "(") {
					n.calls++
				} else {
					n.fieldAccs++
				}
			case isKwTok(src, prev, "new"):
				if !isPunctTok(src, next, "(") {
					n.types++
				}
			case endsType(src, prev) || braces == 1 && parens == 0 && isPunctTok(src, prev, ","):
				switch {
				case isPunctTok(src, next, "("):
					n.methods++
				case braces > 1:
					n.varDecls++
				case parens > 0:
					n.params++
				default:
					n.fields++
				}
			case next.Kind == TokIdent || isPunctTok(src, next, "[") && i+2 < len(toks) && isPunctTok(src, toks[i+2], "]"):
				n.types++
			case isPunctTok(src, next, "("):
				if braces == 1 {
					n.methods++ // a constructor
				} else {
					n.calls++
				}
			default:
				n.idents++
			}
		case TokKeyword:
			switch t.Text(src) {
			case "class":
				n.classes++
			case "int", "boolean":
				n.types++
			case "if":
				n.ifs++
			case "else":
				n.elses++
			case "while":
				n.whiles++
			case "for":
				n.fors++
			case "return":
				n.returns++
			case "print":
				n.prints++
			case "spawn":
				n.spawns++
			case "true", "false":
				n.boolLits++
			case "null":
				n.nullLits++
			case "this":
				n.thises++
			case "length":
				n.lengths++
			case "new":
				if i+2 < len(toks) && isPunctTok(src, toks[i+2], "(") {
					n.newObjs++
				} else {
					n.newArrs++
				}
			}
		case TokPunct:
			switch t.Text(src) {
			case "{":
				if braces > 0 {
					n.blocks++
				}
				braces++
			case "}":
				braces--
			case "(":
				if braces == 1 {
					parens++
				}
			case ")":
				if braces == 1 {
					parens--
				}
			case ";":
				if braces > 1 {
					n.semis++
				}
			case ",":
				if braces > 1 {
					n.commas++
				}
			case "[":
				if !isPunctTok(src, next, "]") && !(i > 1 && isKwTok(src, toks[i-2], "new")) {
					n.indexes++
				}
			case "=":
				// `T x = e` declares; any other `=` assigns.
				if prev.Kind != TokIdent || i < 2 || !endsType(src, toks[i-2]) {
					n.assigns++
				}
			case "!":
				n.unaries++
			case "-":
				if endsOperand(src, prev) {
					n.binaries++
				} else {
					n.unaries++
				}
			case "||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "*", "/", "%":
				n.binaries++
			}
		}
	}
	a.classes.hint, a.fields.hint, a.methods.hint, a.params.hint = n.classes, n.fields, n.methods, n.params
	a.types.hint, a.blocks.hint, a.varDecls.hint = n.types, n.blocks, n.varDecls
	a.ifs.hint, a.whiles.hint, a.fors.hint, a.returns.hint = n.ifs, n.whiles, n.fors, n.returns
	a.prints.hint, a.spawns.hint, a.assigns.hint = n.prints, n.spawns, n.assigns
	a.intLits.hint, a.boolLits.hint, a.nullLits.hint, a.thises.hint = n.intLits, n.boolLits, n.nullLits, n.thises
	a.idents.hint, a.fieldAccs.hint, a.indexes.hint, a.lengths.hint = n.idents, n.fieldAccs, n.indexes, n.lengths
	a.newObjs.hint, a.newArrs.hint, a.calls.hint = n.newObjs, n.newArrs, n.calls
	a.unaries.hint, a.binaries.hint = n.unaries, n.binaries
	// A statement in a block ends with its own `;` or is a block, except
	// a method's body; an if, while or for is counted by the `;` or block
	// of its body, and a for's header holds two more `;`. Every `;`
	// statement that does not assign, declare, return, print or spawn is
	// an expression statement.
	a.exprStmts.hint = n.semis - n.assigns - n.varDecls - n.returns - n.prints - n.spawns
	a.classList.slab.hint, a.fieldList.slab.hint = n.classes, n.fields
	a.methodList.slab.hint, a.paramList.slab.hint = n.methods, n.params
	a.stmtList.slab.hint = n.semis - 2*n.fors + n.blocks - n.methods - n.elses
	a.argList.slab.hint = n.commas + n.calls + n.newObjs
}

func isKwTok(src string, t Token, kw string) bool   { return t.Kind == TokKeyword && t.Text(src) == kw }
func isPunctTok(src string, t Token, s string) bool { return t.Kind == TokPunct && t.Text(src) == s }

// endsType reports whether t can be the last token of a type that a
// declared name follows.
func endsType(src string, t Token) bool {
	switch t.Kind {
	case TokIdent:
		return true
	case TokKeyword:
		s := t.Text(src)
		return s == "int" || s == "boolean" || s == "void"
	case TokPunct:
		return t.Text(src) == "]"
	}
	return false
}

// endsOperand reports whether t can end an operand, which makes a `-`
// after it binary.
func endsOperand(src string, t Token) bool {
	switch t.Kind {
	case TokIdent, TokInt:
		return true
	case TokKeyword:
		s := t.Text(src)
		return s == "this" || s == "null" || s == "true" || s == "false" || s == "length"
	case TokPunct:
		s := t.Text(src)
		return s == ")" || s == "]"
	}
	return false
}
