package minijava

import "fmt"

// maxNesting bounds how deeply statements and expressions may nest. The
// parser recurses once per level, so an unbounded depth — 450 000 nested
// parentheses fit in a megabyte of source — would overflow the goroutine
// stack, which kills the process rather than failing the parse. A left-
// associative chain (1+1+…+1) or a postfix chain (a.b.c, a[i][j]) is
// parsed by a loop and does not nest.
const maxNesting = 1000

// Parser is a recursive-descent parser for MiniJava. Its nodes come from
// the arena's slabs, sized from the token stream before parsing starts.
type Parser struct {
	file  string
	src   string
	toks  []Token
	pos   int
	depth int // statement and expression nesting
	a     arena
}

// Parse parses a whole source file.
func Parse(file, src string) (*Program, error) {
	toks, err := LexAll(file, src)
	if err != nil {
		return nil, err
	}
	p := &Parser{file: file, src: src, toks: toks}
	p.a.size(src, toks)
	return p.parseProgram()
}

// enter counts one level of nesting; every successful enter is paired with
// a leave.
func (p *Parser) enter() error {
	if p.depth == maxNesting {
		return p.errorf(p.cur(), "nesting deeper than %d levels", maxNesting)
	}
	p.depth++
	return nil
}

func (p *Parser) leave() { p.depth-- }

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) peek() Token { return p.at(1) }

func (p *Parser) at(k int) Token {
	if p.pos+k >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+k]
}

func (p *Parser) advance() Token {
	t := p.cur()
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(t Token, format string, args ...any) error {
	return &SyntaxError{File: p.file, Line: int(t.Line), Col: int(t.Col), Msg: fmt.Sprintf(format, args...)}
}

// isKw reports whether the current token is the given keyword.
func (p *Parser) isKw(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text(p.src) == kw
}

// isPunct reports whether the current token is the given punctuation.
func (p *Parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text(p.src) == s
}

func (p *Parser) expectKw(kw string) (Token, error) {
	if !p.isKw(kw) {
		return Token{}, p.errorf(p.cur(), "expected %q, found %s", kw, p.cur().describe(p.src))
	}
	return p.advance(), nil
}

func (p *Parser) expectPunct(s string) (Token, error) {
	if !p.isPunct(s) {
		return Token{}, p.errorf(p.cur(), "expected %q, found %s", s, p.cur().describe(p.src))
	}
	return p.advance(), nil
}

func (p *Parser) expectIdent() (Token, error) {
	if p.cur().Kind != TokIdent {
		return Token{}, p.errorf(p.cur(), "expected identifier, found %s", p.cur().describe(p.src))
	}
	return p.advance(), nil
}

func (p *Parser) parseProgram() (*Program, error) {
	for p.cur().Kind != TokEOF {
		cd, err := p.parseClass()
		if err != nil {
			return nil, err
		}
		p.a.classList.push(cd)
	}
	prog := &Program{Classes: p.a.classList.pop(0)}
	if len(prog.Classes) == 0 {
		return nil, p.errorf(p.cur(), "empty program: expected at least one class")
	}
	return prog, nil
}

func (p *Parser) parseClass() (*ClassDecl, error) {
	kw, err := p.expectKw("class")
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	cd := p.a.classes.alloc(ClassDecl{Name: name.Text(p.src), Line: int(kw.Line)})
	fields, methods := p.a.fieldList.mark(), p.a.methodList.mark()
	for !p.isPunct("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errorf(p.cur(), "unexpected end of file in class %s", cd.Name)
		}
		if err := p.parseMember(cd); err != nil {
			return nil, err
		}
	}
	p.advance() // }
	cd.Fields, cd.Methods = p.a.fieldList.pop(fields), p.a.methodList.pop(methods)
	return cd, nil
}

// parseMember parses one field, method, or constructor declaration of cd
// onto the field and method lists.
func (p *Parser) parseMember(cd *ClassDecl) error {
	static := false
	if p.isKw("static") {
		static = true
		p.advance()
	}

	// Constructor: ClassName ( ... )
	if !static && p.cur().Kind == TokIdent && p.cur().Text(p.src) == cd.Name &&
		p.peek().Kind == TokPunct && p.peek().Text(p.src) == "(" {
		return p.parseCtor()
	}

	// void method
	if p.isKw("void") {
		vt := p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		return p.parseMethodRest(name.Text(p.src), static, nil, int(vt.Line))
	}

	// Typed member: field(s) or method.
	te, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if p.isPunct("(") {
		return p.parseMethodRest(name.Text(p.src), static, te, te.Line)
	}
	// Field declaration, possibly a comma list.
	p.a.fieldList.push(p.a.fields.alloc(FieldDecl{Name: name.Text(p.src), Type: te, Static: static, Line: int(name.Line)}))
	for p.isPunct(",") {
		p.advance()
		n, err := p.expectIdent()
		if err != nil {
			return err
		}
		p.a.fieldList.push(p.a.fields.alloc(FieldDecl{Name: n.Text(p.src), Type: te, Static: static, Line: int(n.Line)}))
	}
	_, err = p.expectPunct(";")
	return err
}

func (p *Parser) parseCtor() error {
	name := p.advance() // class name
	params, err := p.parseParams()
	if err != nil {
		return err
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	p.a.methodList.push(p.a.methods.alloc(MethodDecl{
		Name: "<init>", Ctor: true, Params: params, Body: body, Line: int(name.Line),
	}))
	return nil
}

func (p *Parser) parseMethodRest(name string, static bool, ret *TypeExpr, line int) error {
	params, err := p.parseParams()
	if err != nil {
		return err
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	p.a.methodList.push(p.a.methods.alloc(MethodDecl{
		Name: name, Static: static, Params: params, Return: ret, Body: body, Line: line,
	}))
	return nil
}

func (p *Parser) parseParams() ([]*Param, error) {
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	m := p.a.paramList.mark()
	for !p.isPunct(")") {
		if p.a.paramList.mark() > m {
			if _, err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		te, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		p.a.paramList.push(p.a.params.alloc(Param{Name: name.Text(p.src), Type: te, Line: int(name.Line)}))
	}
	p.advance() // )
	return p.a.paramList.pop(m), nil
}

// parseType parses a base type name plus [] dimensions.
func (p *Parser) parseType() (*TypeExpr, error) {
	t := p.cur()
	var base string
	switch {
	case p.isKw("int"):
		base = "int"
	case p.isKw("boolean"):
		base = "boolean"
	case t.Kind == TokIdent:
		base = t.Text(p.src)
	default:
		return nil, p.errorf(t, "expected type, found %s", t.describe(p.src))
	}
	p.advance()
	dims := 0
	for p.isPunct("[") && p.peek().Kind == TokPunct && p.peek().Text(p.src) == "]" {
		p.advance()
		p.advance()
		dims++
	}
	return p.a.types.alloc(TypeExpr{Base: base, Dims: dims, Line: int(t.Line)}), nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expectPunct("{")
	if err != nil {
		return nil, err
	}
	m := p.a.stmtList.mark()
	for !p.isPunct("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errorf(p.cur(), "unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.a.stmtList.push(s)
	}
	p.advance() // }
	return p.a.blocks.alloc(Block{Stmts: p.a.stmtList.pop(m), Line: int(lb.Line)}), nil
}

// looksLikeVarDecl decides whether the upcoming tokens start a local
// variable declaration rather than an expression statement. The ambiguous
// case is `Name ...`: `Name x`, `Name[] x` are declarations while
// `name = e`, `name[i] = e`, `name.f(...)` are not.
func (p *Parser) looksLikeVarDecl() bool {
	if p.isKw("int") || p.isKw("boolean") {
		return true
	}
	if p.cur().Kind != TokIdent {
		return false
	}
	// Name Name ...  => declaration
	if p.peek().Kind == TokIdent {
		return true
	}
	// Name [ ] ... => declaration (array type)
	if p.peek().Kind == TokPunct && p.peek().Text(p.src) == "[" &&
		p.at(2).Kind == TokPunct && p.at(2).Text(p.src) == "]" {
		return true
	}
	return false
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isKw("if"):
		return p.parseIf()
	case p.isKw("while"):
		return p.parseWhile()
	case p.isKw("for"):
		return p.parseFor()
	case p.isKw("return"):
		p.advance()
		r := p.a.returns.alloc(Return{Line: int(t.Line)})
		if !p.isPunct(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Value = e
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return r, nil
	case p.isKw("print"):
		p.advance()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return p.a.prints.alloc(Print{E: e, Line: int(t.Line)}), nil
	case p.isKw("spawn"):
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call, ok := e.(*Call)
		if !ok {
			return nil, p.errorf(t, "spawn requires a method call")
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return p.a.spawns.alloc(Spawn{Call: call, Line: int(t.Line)}), nil
	case p.looksLikeVarDecl():
		vd, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return vd, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *Parser) parseVarDecl() (*VarDecl, error) {
	te, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	vd := p.a.varDecls.alloc(VarDecl{Name: name.Text(p.src), TypeExpr: te, Line: int(name.Line)})
	if p.isPunct("=") {
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		vd.Init = e
	}
	return vd, nil
}

// parseSimpleStmt parses an assignment or call, without the trailing
// semicolon (shared by statement and for-clause positions).
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	t := p.cur()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.isPunct("=") {
		p.advance()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		switch e.(type) {
		case *Ident, *FieldAccess, *Index:
			return p.a.assigns.alloc(Assign{LHS: e, RHS: rhs, Line: int(t.Line)}), nil
		default:
			return nil, p.errorf(t, "invalid assignment target")
		}
	}
	if _, ok := e.(*Call); !ok {
		return nil, p.errorf(t, "expression statement must be a call")
	}
	return p.a.exprStmts.alloc(ExprStmt{E: e, Line: int(t.Line)}), nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.advance() // if
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := p.a.ifs.alloc(If{Cond: cond, Then: then, Line: int(t.Line)})
	if p.isKw("else") {
		p.advance()
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.advance() // while
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return p.a.whiles.alloc(While{Cond: cond, Body: body, Line: int(t.Line)}), nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.advance() // for
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := p.a.fors.alloc(For{Line: int(t.Line)})
	if !p.isPunct(";") {
		if p.looksLikeVarDecl() {
			vd, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			st.Init = vd
		} else {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			st.Init = s
		}
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		st.Post = s
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// Expression grammar, lowest precedence first:
//
//	expr   := or
//	or     := and ("||" and)*
//	and    := eq ("&&" eq)*
//	eq     := rel (("=="|"!=") rel)*
//	rel    := add (("<"|"<="|">"|">=") add)*
//	add    := mul (("+"|"-") mul)*
//	mul    := unary (("*"|"/"|"%") unary)*
//	unary  := ("-"|"!") unary | postfix
//	postfix:= primary ( "." ident [args] | "." length | "[" expr "]" )*
func (p *Parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *Parser) parseBinaryLevel(ops []string, sub func() (Expr, error)) (Expr, error) {
	x, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.isPunct(op) {
				t := p.advance()
				y, err := sub()
				if err != nil {
					return nil, err
				}
				x = p.a.binaries.alloc(Binary{Op: op, X: x, Y: y, Line: int(t.Line)})
				matched = true
				break
			}
		}
		if !matched {
			return x, nil
		}
	}
}

func (p *Parser) parseOr() (Expr, error) {
	return p.parseBinaryLevel([]string{"||"}, p.parseAnd)
}

func (p *Parser) parseAnd() (Expr, error) {
	return p.parseBinaryLevel([]string{"&&"}, p.parseEq)
}

func (p *Parser) parseEq() (Expr, error) {
	return p.parseBinaryLevel([]string{"==", "!="}, p.parseRel)
}

func (p *Parser) parseRel() (Expr, error) {
	return p.parseBinaryLevel([]string{"<=", ">=", "<", ">"}, p.parseAdd)
}

func (p *Parser) parseAdd() (Expr, error) {
	return p.parseBinaryLevel([]string{"+", "-"}, p.parseMul)
}

func (p *Parser) parseMul() (Expr, error) {
	return p.parseBinaryLevel([]string{"*", "/", "%"}, p.parseUnary)
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if p.isPunct("-") || p.isPunct("!") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.a.unaries.alloc(Unary{Op: t.Text(p.src), X: x, Line: int(t.Line)}), nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("."):
			p.advance()
			if p.isKw("length") {
				t := p.advance()
				e = p.a.lengths.alloc(Length{Arr: e, Line: int(t.Line)})
				continue
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.isPunct("(") {
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				e = p.a.calls.alloc(Call{Recv: e, Name: name.Text(p.src), Args: args, Line: int(name.Line)})
			} else {
				e = p.a.fieldAccs.alloc(FieldAccess{Obj: e, Name: name.Text(p.src), Line: int(name.Line)})
			}
		case p.isPunct("["):
			t := p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			e = p.a.indexes.alloc(Index{Arr: e, Index: idx, Line: int(t.Line)})
		default:
			return e, nil
		}
	}
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	m := p.a.argList.mark()
	for !p.isPunct(")") {
		if p.a.argList.mark() > m {
			if _, err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.a.argList.push(a)
	}
	p.advance() // )
	return p.a.argList.pop(m), nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.advance()
		return p.a.intLits.alloc(IntLit{Val: t.Val(p.src), Line: int(t.Line)}), nil
	case p.isKw("true"), p.isKw("false"):
		p.advance()
		return p.a.boolLits.alloc(BoolLit{Val: t.Text(p.src) == "true", Line: int(t.Line)}), nil
	case p.isKw("null"):
		p.advance()
		return p.a.nullLits.alloc(NullLit{Line: int(t.Line)}), nil
	case p.isKw("this"):
		p.advance()
		return p.a.thises.alloc(This{Line: int(t.Line)}), nil
	case p.isKw("new"):
		return p.parseNew()
	case p.isPunct("("):
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		p.advance()
		if p.isPunct("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return p.a.calls.alloc(Call{Name: t.Text(p.src), Args: args, Line: int(t.Line)}), nil
		}
		return p.a.idents.alloc(Ident{Name: t.Text(p.src), Line: int(t.Line)}), nil
	default:
		return nil, p.errorf(t, "expected expression, found %s", t.describe(p.src))
	}
}

// parseNew parses `new C(args)`, `new base[len]`, or `new base[len][]...`.
func (p *Parser) parseNew() (Expr, error) {
	t := p.advance() // new
	var base string
	switch {
	case p.isKw("int"):
		base = "int"
		p.advance()
	case p.isKw("boolean"):
		base = "boolean"
		p.advance()
	case p.cur().Kind == TokIdent:
		base = p.cur().Text(p.src)
		p.advance()
	default:
		return nil, p.errorf(p.cur(), "expected type after new, found %s", p.cur().describe(p.src))
	}
	if p.isPunct("(") {
		if base == "int" || base == "boolean" {
			return nil, p.errorf(t, "cannot construct primitive type %s", base)
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return p.a.newObjs.alloc(NewObject{ClassName: base, Args: args, Line: int(t.Line)}), nil
	}
	if _, err := p.expectPunct("["); err != nil {
		return nil, err
	}
	length, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	dims := 0
	for p.isPunct("[") && p.peek().Kind == TokPunct && p.peek().Text(p.src) == "]" {
		p.advance()
		p.advance()
		dims++
	}
	elem := p.a.types.alloc(TypeExpr{Base: base, Dims: dims, Line: int(t.Line)})
	return p.a.newArrs.alloc(NewArray{Elem: elem, Len: length, Line: int(t.Line)}), nil
}
