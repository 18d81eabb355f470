package minijava

import (
	"fmt"

	"satbelim/internal/bytecode"
)

// TypeError is a semantic-analysis failure with a source line.
type TypeError struct {
	File string
	Line int
	Msg  string
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// MethodSig is a resolved method signature.
type MethodSig struct {
	Decl   *MethodDecl
	Class  string
	Params []*bytecode.Type
	Return *bytecode.Type
	Static bool
	Ctor   bool
}

// Ref returns the bytecode reference for the method.
func (s *MethodSig) Ref() bytecode.MethodRef {
	return bytecode.MethodRef{Class: s.Class, Name: s.Decl.Name}
}

// ClassInfo is the resolved symbol table of one class.
type ClassInfo struct {
	Decl    *ClassDecl
	Type    *bytecode.Type // the class's one type, shared by every use
	Fields  map[string]*bytecode.Field
	Methods map[string]*MethodSig
	Ctor    *MethodSig // nil when the class declares no constructor

	ctorRef *bytecode.MethodRef // Ctor.Ref(), shared by every new
}

// Checked is the result of semantic analysis: the annotated AST plus
// symbol tables consumed by the code generator.
type Checked struct {
	Prog    *Program
	Classes map[string]*ClassInfo
	// Slots maps each method decl to its local slot types (receiver
	// first for instance methods, then parameters, then locals).
	Slots map[*MethodDecl][]*bytecode.Type
}

// checker carries type-checking state.
type checker struct {
	file      string
	classes   map[string]*ClassInfo
	slots     map[*MethodDecl][]*bytecode.Type
	arrays    map[*bytecode.Type]*bytecode.Type // element type -> its one array type
	typeLists slab[*bytecode.Type]              // parameter and slot type lists

	// Per-method state.
	class  *ClassInfo
	method *MethodSig
	types  []*bytecode.Type // slot -> type; copied out when the method is done

	// The local scopes: every visible declaration innermost last, each
	// scope's start in vars, and the name -> vars index of each name's
	// innermost declaration (-1 once it goes out of scope). The map is
	// only ever written for names already in it when a scope closes, so
	// it holds one entry per distinct local name of the program.
	vars    []scopeVar
	marks   []int
	visible map[string]int

	chain []*Binary // see checkChain
}

// scopeVar is one declared local, and the index in vars of the
// declaration of the same name it shadows, or -1.
type scopeVar struct {
	name   string
	slot   int
	shadow int
}

// Check performs semantic analysis on a parsed program.
func Check(file string, prog *Program) (*Checked, error) {
	c := &checker{
		file:    file,
		arrays:  map[*bytecode.Type]*bytecode.Type{},
		visible: map[string]int{},
	}
	if err := c.collect(prog); err != nil {
		return nil, err
	}
	for _, cd := range prog.Classes {
		ci := c.classes[cd.Name]
		for _, md := range cd.Methods {
			if err := c.checkMethod(ci, md); err != nil {
				return nil, err
			}
		}
	}
	return &Checked{Prog: prog, Classes: c.classes, Slots: c.slots}, nil
}

func (c *checker) errorf(line int, format string, args ...any) error {
	return &TypeError{File: c.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// resolveType converts a syntactic type to a semantic one.
func (c *checker) resolveType(te *TypeExpr) (*bytecode.Type, error) {
	var base *bytecode.Type
	switch te.Base {
	case "int":
		base = bytecode.Int
	case "boolean":
		base = bytecode.Bool
	default:
		ci, ok := c.classes[te.Base]
		if !ok {
			return nil, c.errorf(te.Line, "unknown type %s", te.Base)
		}
		base = ci.Type
	}
	for i := 0; i < te.Dims; i++ {
		base = c.arrayOf(base)
	}
	return base, nil
}

// arrayOf returns the one array type of elem. Since every class type and
// scalar type has one pointer, so does every array type built on them.
func (c *checker) arrayOf(elem *bytecode.Type) *bytecode.Type {
	t, ok := c.arrays[elem]
	if !ok {
		t = bytecode.ArrayOf(elem)
		c.arrays[elem] = t
	}
	return t
}

// collect builds the class symbol tables (two-pass: names first so that
// classes may reference each other).
func (c *checker) collect(prog *Program) error {
	c.classes = make(map[string]*ClassInfo, len(prog.Classes))
	infos := make([]ClassInfo, len(prog.Classes))
	nfields, nmethods, nparams := 0, 0, 0
	for i, cd := range prog.Classes {
		if _, dup := c.classes[cd.Name]; dup {
			return c.errorf(cd.Line, "duplicate class %s", cd.Name)
		}
		infos[i] = ClassInfo{
			Decl:    cd,
			Type:    bytecode.ClassType(cd.Name),
			Fields:  make(map[string]*bytecode.Field, len(cd.Fields)),
			Methods: make(map[string]*MethodSig, len(cd.Methods)),
		}
		c.classes[cd.Name] = &infos[i]
		nfields += len(cd.Fields)
		nmethods += len(cd.Methods)
		for _, md := range cd.Methods {
			nparams += len(md.Params)
		}
	}
	c.slots = make(map[*MethodDecl][]*bytecode.Type, nmethods)
	fields := make([]bytecode.Field, 0, nfields)
	sigs := make([]MethodSig, 0, nmethods)
	// The parameter lists, then each method's slots: its receiver, its
	// parameters again and its locals, which the sizes guess at.
	c.typeLists.hint = 2 * (nparams + nmethods)
	for _, cd := range prog.Classes {
		ci := c.classes[cd.Name]
		for _, fd := range cd.Fields {
			if _, dup := ci.Fields[fd.Name]; dup {
				return c.errorf(fd.Line, "duplicate field %s.%s", cd.Name, fd.Name)
			}
			ft, err := c.resolveType(fd.Type)
			if err != nil {
				return err
			}
			fields = append(fields, bytecode.Field{Name: fd.Name, Type: ft, Static: fd.Static})
			ci.Fields[fd.Name] = &fields[len(fields)-1]
		}
		for _, md := range cd.Methods {
			if _, dup := ci.Methods[md.Name]; dup {
				return c.errorf(md.Line, "duplicate method %s.%s", cd.Name, md.Name)
			}
			sigs = append(sigs, MethodSig{Decl: md, Class: cd.Name, Static: md.Static, Ctor: md.Ctor})
			sig := &sigs[len(sigs)-1]
			c.types = c.types[:0]
			for _, pm := range md.Params {
				pt, err := c.resolveType(pm.Type)
				if err != nil {
					return err
				}
				c.types = append(c.types, pt)
			}
			sig.Params = c.typeLists.copyOf(c.types)
			sig.Return = bytecode.Void
			if md.Return != nil {
				rt, err := c.resolveType(md.Return)
				if err != nil {
					return err
				}
				sig.Return = rt
			}
			ci.Methods[md.Name] = sig
			if md.Ctor {
				ref := sig.Ref()
				ci.Ctor, ci.ctorRef = sig, &ref
			}
		}
	}
	return nil
}

func (c *checker) pushScope() { c.marks = append(c.marks, len(c.vars)) }

func (c *checker) popScope() {
	m := c.marks[len(c.marks)-1]
	for i := len(c.vars) - 1; i >= m; i-- {
		c.visible[c.vars[i].name] = c.vars[i].shadow
	}
	c.vars, c.marks = c.vars[:m], c.marks[:len(c.marks)-1]
}

func (c *checker) declare(name string, t *bytecode.Type, line int) (int, error) {
	shadow, ok := c.visible[name]
	if !ok {
		shadow = -1
	}
	if shadow >= c.marks[len(c.marks)-1] {
		return 0, c.errorf(line, "duplicate variable %s", name)
	}
	slot := len(c.types)
	c.types = append(c.types, t)
	c.visible[name] = len(c.vars)
	c.vars = append(c.vars, scopeVar{name: name, slot: slot, shadow: shadow})
	return slot, nil
}

func (c *checker) lookupVar(name string) (int, bool) {
	if i, ok := c.visible[name]; ok && i >= 0 {
		return c.vars[i].slot, true
	}
	return 0, false
}

func (c *checker) checkMethod(ci *ClassInfo, md *MethodDecl) error {
	sig := ci.Methods[md.Name]
	c.class = ci
	c.method = sig
	c.types = c.types[:0]
	c.pushScope()
	defer c.popScope()

	if !md.Static {
		// Slot 0 is the receiver.
		c.types = append(c.types, ci.Type)
	}
	for i, pm := range md.Params {
		if _, err := c.declare(pm.Name, sig.Params[i], pm.Line); err != nil {
			return err
		}
	}
	if err := c.checkBlock(md.Body); err != nil {
		return err
	}
	c.slots[md] = c.typeLists.copyOf(c.types)
	return nil
}

func (c *checker) checkBlock(b *Block) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

// assignable reports whether a value of type from may be stored where type
// to is expected. Null (represented by a nil type on NullLit after
// checking — we use a class type with empty name instead) is assignable to
// any reference type.
func assignable(to, from *bytecode.Type) bool {
	if isNullType(from) {
		return to.IsRef()
	}
	return to.Equal(from)
}

// nullType marks the type of the null literal.
var nullType = bytecode.ClassType("<null>")

func isNullType(t *bytecode.Type) bool {
	return t != nil && t.Kind == bytecode.KindClass && t.Class == "<null>"
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return c.checkBlock(st)
	case *VarDecl:
		dt, err := c.resolveType(st.TypeExpr)
		if err != nil {
			return err
		}
		if st.Init != nil {
			it, err := c.checkExpr(st.Init)
			if err != nil {
				return err
			}
			if !assignable(dt, it) {
				return c.errorf(st.Line, "cannot initialize %s %s with %s", dt, st.Name, it)
			}
		}
		slot, err := c.declare(st.Name, dt, st.Line)
		if err != nil {
			return err
		}
		st.Slot = slot
		st.DeclType = dt
		return nil
	case *If:
		ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct != bytecode.Bool {
			return c.errorf(st.Line, "if condition must be boolean, got %s", ct)
		}
		if err := c.checkStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkStmt(st.Else)
		}
		return nil
	case *While:
		ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct != bytecode.Bool {
			return c.errorf(st.Line, "while condition must be boolean, got %s", ct)
		}
		return c.checkStmt(st.Body)
	case *For:
		c.pushScope()
		defer c.popScope()
		if st.Init != nil {
			if err := c.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			ct, err := c.checkExpr(st.Cond)
			if err != nil {
				return err
			}
			if ct != bytecode.Bool {
				return c.errorf(st.Line, "for condition must be boolean, got %s", ct)
			}
		}
		if st.Post != nil {
			if err := c.checkStmt(st.Post); err != nil {
				return err
			}
		}
		return c.checkStmt(st.Body)
	case *Return:
		want := c.method.Return
		if st.Value == nil {
			if want != bytecode.Void {
				return c.errorf(st.Line, "missing return value (want %s)", want)
			}
			return nil
		}
		if want == bytecode.Void {
			return c.errorf(st.Line, "void method cannot return a value")
		}
		got, err := c.checkExpr(st.Value)
		if err != nil {
			return err
		}
		if !assignable(want, got) {
			return c.errorf(st.Line, "cannot return %s from method returning %s", got, want)
		}
		return nil
	case *ExprStmt:
		_, err := c.checkExpr(st.E)
		return err
	case *Print:
		et, err := c.checkExpr(st.E)
		if err != nil {
			return err
		}
		if et != bytecode.Int {
			return c.errorf(st.Line, "print requires an int, got %s", et)
		}
		return nil
	case *Spawn:
		if _, err := c.checkExpr(st.Call); err != nil {
			return err
		}
		if st.Call.Static {
			return c.errorf(st.Line, "spawn requires an instance method call")
		}
		sig := c.classes[st.Call.Method.Class].Methods[st.Call.Method.Name]
		if len(sig.Params) != 0 || sig.Return != bytecode.Void {
			return c.errorf(st.Line, "spawn target must be a void method with no parameters")
		}
		return nil
	case *Assign:
		rt, err := c.checkExpr(st.RHS)
		if err != nil {
			return err
		}
		lt, err := c.checkLValue(st.LHS)
		if err != nil {
			return err
		}
		if !assignable(lt, rt) {
			return c.errorf(st.Line, "cannot assign %s to %s", rt, lt)
		}
		return nil
	default:
		return fmt.Errorf("internal: unknown statement %T", s)
	}
}

// checkLValue checks an assignment target and returns its type.
func (c *checker) checkLValue(e Expr) (*bytecode.Type, error) {
	switch lv := e.(type) {
	case *Ident:
		t, err := c.checkExpr(lv)
		if err != nil {
			return nil, err
		}
		if lv.Kind == SymClass {
			return nil, c.errorf(lv.Line, "cannot assign to class %s", lv.Name)
		}
		return t, nil
	case *FieldAccess:
		return c.checkExpr(lv)
	case *Index:
		return c.checkExpr(lv)
	default:
		return nil, c.errorf(0, "invalid assignment target")
	}
}

func (c *checker) checkExpr(e Expr) (*bytecode.Type, error) {
	switch ex := e.(type) {
	case *IntLit:
		ex.setType(bytecode.Int)
	case *BoolLit:
		ex.setType(bytecode.Bool)
	case *NullLit:
		ex.setType(nullType)
	case *This:
		if c.method.Static {
			return nil, c.errorf(ex.Line, "this is not available in a static method")
		}
		ex.setType(c.class.Type)
	case *Ident:
		if slot, ok := c.lookupVar(ex.Name); ok {
			ex.Kind = SymLocal
			ex.Slot = slot
			ex.setType(c.types[slot])
			break
		}
		if f, ok := c.class.Fields[ex.Name]; ok {
			ex.Field = bytecode.FieldRef{Class: c.class.Decl.Name, Name: ex.Name}
			if f.Static {
				ex.Kind = SymStaticField
			} else {
				if c.method.Static {
					return nil, c.errorf(ex.Line, "instance field %s referenced from static method", ex.Name)
				}
				ex.Kind = SymField
			}
			ex.setType(f.Type)
			break
		}
		if _, ok := c.classes[ex.Name]; ok {
			ex.Kind = SymClass
			ex.setType(nil)
			break
		}
		return nil, c.errorf(ex.Line, "undefined: %s", ex.Name)
	case *FieldAccess:
		// Class.name static access?
		if id, ok := ex.Obj.(*Ident); ok {
			if _, isVar := c.lookupVar(id.Name); !isVar {
				if _, isField := c.class.Fields[id.Name]; !isField {
					if ci, isClass := c.classes[id.Name]; isClass {
						f, ok := ci.Fields[ex.Name]
						if !ok || !f.Static {
							return nil, c.errorf(ex.Line, "no static field %s.%s", id.Name, ex.Name)
						}
						id.Kind = SymClass
						ex.Static = true
						ex.Field = bytecode.FieldRef{Class: id.Name, Name: ex.Name}
						ex.setType(f.Type)
						return ex.Type(), nil
					}
				}
			}
		}
		ot, err := c.checkExpr(ex.Obj)
		if err != nil {
			return nil, err
		}
		if ot == nil || ot.Kind != bytecode.KindClass || isNullType(ot) {
			return nil, c.errorf(ex.Line, "field access on non-object type %s", ot)
		}
		ci, ok := c.classes[ot.Class]
		if !ok {
			return nil, c.errorf(ex.Line, "unknown class %s", ot.Class)
		}
		f, ok := ci.Fields[ex.Name]
		if !ok {
			return nil, c.errorf(ex.Line, "class %s has no field %s", ot.Class, ex.Name)
		}
		if f.Static {
			return nil, c.errorf(ex.Line, "static field %s.%s accessed through instance", ot.Class, ex.Name)
		}
		ex.Field = bytecode.FieldRef{Class: ot.Class, Name: ex.Name}
		ex.setType(f.Type)
	case *Index:
		at, err := c.checkExpr(ex.Arr)
		if err != nil {
			return nil, err
		}
		if at == nil || at.Kind != bytecode.KindArray {
			return nil, c.errorf(ex.Line, "indexing non-array type %s", at)
		}
		it, err := c.checkExpr(ex.Index)
		if err != nil {
			return nil, err
		}
		if it != bytecode.Int {
			return nil, c.errorf(ex.Line, "array index must be int, got %s", it)
		}
		ex.setType(at.Elem)
	case *Length:
		at, err := c.checkExpr(ex.Arr)
		if err != nil {
			return nil, err
		}
		if at == nil || at.Kind != bytecode.KindArray {
			return nil, c.errorf(ex.Line, ".length on non-array type %s", at)
		}
		ex.setType(bytecode.Int)
	case *NewObject:
		ci, ok := c.classes[ex.ClassName]
		if !ok {
			return nil, c.errorf(ex.Line, "unknown class %s", ex.ClassName)
		}
		var want []*bytecode.Type
		if ci.Ctor != nil {
			want = ci.Ctor.Params
			ex.Ctor = ci.ctorRef
		}
		if len(ex.Args) != len(want) {
			return nil, c.errorf(ex.Line, "constructor %s expects %d arguments, got %d", ex.ClassName, len(want), len(ex.Args))
		}
		for i, a := range ex.Args {
			at, err := c.checkExpr(a)
			if err != nil {
				return nil, err
			}
			if !assignable(want[i], at) {
				return nil, c.errorf(ex.Line, "constructor argument %d: cannot use %s as %s", i+1, at, want[i])
			}
		}
		ex.setType(ci.Type)
	case *NewArray:
		et, err := c.resolveType(ex.Elem)
		if err != nil {
			return nil, err
		}
		lt, err := c.checkExpr(ex.Len)
		if err != nil {
			return nil, err
		}
		if lt != bytecode.Int {
			return nil, c.errorf(ex.Line, "array length must be int, got %s", lt)
		}
		ex.ElemType = et
		ex.setType(c.arrayOf(et))
	case *Call:
		return c.checkCall(ex)
	case *Unary:
		xt, err := c.checkExpr(ex.X)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			if xt != bytecode.Int {
				return nil, c.errorf(ex.Line, "unary - requires int, got %s", xt)
			}
			ex.setType(bytecode.Int)
		case "!":
			if xt != bytecode.Bool {
				return nil, c.errorf(ex.Line, "unary ! requires boolean, got %s", xt)
			}
			ex.setType(bytecode.Bool)
		}
	case *Binary:
		return c.checkChain(ex)
	default:
		return nil, fmt.Errorf("internal: unknown expression %T", e)
	}
	return e.Type(), nil
}

// checkChain checks ex and, by a loop, the left-deep chain of binary
// operators under it (1+1+…+1): only right operands recurse, so a chain of
// any length fits the stack. chain holds the links of every chain being
// checked, innermost last.
func (c *checker) checkChain(ex *Binary) (*bytecode.Type, error) {
	base := len(c.chain)
	for b := ex; b != nil; b, _ = b.X.(*Binary) {
		c.chain = append(c.chain, b)
	}
	xt, err := c.checkExpr(c.chain[len(c.chain)-1].X)
	for i := len(c.chain) - 1; i >= base && err == nil; i-- {
		var yt *bytecode.Type
		if yt, err = c.checkExpr(c.chain[i].Y); err == nil {
			xt, err = c.binaryType(c.chain[i], xt, yt)
		}
	}
	c.chain = c.chain[:base]
	return xt, err
}

// binaryType types ex, whose operands have types xt and yt.
func (c *checker) binaryType(ex *Binary, xt, yt *bytecode.Type) (*bytecode.Type, error) {
	switch ex.Op {
	case "+", "-", "*", "/", "%":
		if xt != bytecode.Int || yt != bytecode.Int {
			return nil, c.errorf(ex.Line, "%s requires ints, got %s and %s", ex.Op, xt, yt)
		}
		ex.setType(bytecode.Int)
	case "<", "<=", ">", ">=":
		if xt != bytecode.Int || yt != bytecode.Int {
			return nil, c.errorf(ex.Line, "%s requires ints, got %s and %s", ex.Op, xt, yt)
		}
		ex.setType(bytecode.Bool)
	case "&&", "||":
		if xt != bytecode.Bool || yt != bytecode.Bool {
			return nil, c.errorf(ex.Line, "%s requires booleans, got %s and %s", ex.Op, xt, yt)
		}
		ex.setType(bytecode.Bool)
	case "==", "!=":
		ok := (xt == bytecode.Int && yt == bytecode.Int) ||
			(xt == bytecode.Bool && yt == bytecode.Bool) ||
			((xt.IsRef() || isNullType(xt)) && (yt.IsRef() || isNullType(yt)))
		if !ok {
			return nil, c.errorf(ex.Line, "%s requires operands of matching category, got %s and %s", ex.Op, xt, yt)
		}
		ex.setType(bytecode.Bool)
	default:
		return nil, fmt.Errorf("internal: unknown binary op %s", ex.Op)
	}
	return ex.Type(), nil
}

func (c *checker) checkCall(ex *Call) (*bytecode.Type, error) {
	var sig *MethodSig
	switch {
	case ex.Recv == nil:
		// Bare call: same-class method; implicit this for instance
		// targets.
		s, ok := c.class.Methods[ex.Name]
		if !ok {
			return nil, c.errorf(ex.Line, "class %s has no method %s", c.class.Decl.Name, ex.Name)
		}
		if !s.Static && c.method.Static {
			return nil, c.errorf(ex.Line, "instance method %s called from static method without receiver", ex.Name)
		}
		sig = s
		ex.Static = s.Static
	default:
		// Class.name(...) static call?
		if id, ok := ex.Recv.(*Ident); ok {
			if _, isVar := c.lookupVar(id.Name); !isVar {
				if _, isField := c.class.Fields[id.Name]; !isField {
					if ci, isClass := c.classes[id.Name]; isClass {
						s, ok := ci.Methods[ex.Name]
						if !ok || !s.Static {
							return nil, c.errorf(ex.Line, "no static method %s.%s", id.Name, ex.Name)
						}
						id.Kind = SymClass
						sig = s
						ex.Static = true
						ex.Recv = nil // no receiver value to evaluate
					}
				}
			}
		}
		if sig == nil {
			rt, err := c.checkExpr(ex.Recv)
			if err != nil {
				return nil, err
			}
			if rt == nil || rt.Kind != bytecode.KindClass || isNullType(rt) {
				return nil, c.errorf(ex.Line, "method call on non-object type %s", rt)
			}
			ci := c.classes[rt.Class]
			s, ok := ci.Methods[ex.Name]
			if !ok {
				return nil, c.errorf(ex.Line, "class %s has no method %s", rt.Class, ex.Name)
			}
			if s.Static {
				return nil, c.errorf(ex.Line, "static method %s.%s called through instance", rt.Class, ex.Name)
			}
			if s.Ctor {
				return nil, c.errorf(ex.Line, "cannot call constructor directly")
			}
			sig = s
		}
	}
	if len(ex.Args) != len(sig.Params) {
		return nil, c.errorf(ex.Line, "method %s expects %d arguments, got %d", ex.Name, len(sig.Params), len(ex.Args))
	}
	for i, a := range ex.Args {
		at, err := c.checkExpr(a)
		if err != nil {
			return nil, err
		}
		if !assignable(sig.Params[i], at) {
			return nil, c.errorf(ex.Line, "argument %d of %s: cannot use %s as %s", i+1, ex.Name, at, sig.Params[i])
		}
	}
	ex.Method = sig.Ref()
	ex.setType(sig.Return)
	return sig.Return, nil
}

// FindMain locates the program entry point: a static void main() with no
// parameters. It errors when absent or ambiguous.
func (ch *Checked) FindMain() (bytecode.MethodRef, error) {
	var found []bytecode.MethodRef
	for name, ci := range ch.Classes {
		if sig, ok := ci.Methods["main"]; ok && sig.Static && len(sig.Params) == 0 && sig.Return == bytecode.Void {
			found = append(found, bytecode.MethodRef{Class: name, Name: "main"})
		}
	}
	switch len(found) {
	case 0:
		return bytecode.MethodRef{}, fmt.Errorf("no static void main() found")
	case 1:
		return found[0], nil
	default:
		return bytecode.MethodRef{}, fmt.Errorf("multiple main methods found")
	}
}
