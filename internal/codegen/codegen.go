// Package codegen lowers a type-checked MiniJava program to bytecode.
//
// The lowering follows JVM conventions where they matter to the analyses:
// object allocation compiles to newinstance; dup; <args>; invoke <init>
// (so constructor inlining later exposes the pre-null fields of the fresh
// object), locals are default-initialized at their declaration, and array
// initialization loops compile to the aastore pattern the array analysis
// recognizes.
package codegen

import (
	"fmt"

	"satbelim/internal/bytecode"
	"satbelim/internal/minijava"
)

// Compile lowers a checked program. The returned program's Main is set
// when a unique static void main() exists. The output is not checked here:
// the verifier checks the program the pipeline goes on to run, after
// inlining, and Program.Validate checks it on request.
//
// Compile allocates per program and per method, not per class, statement
// or label: the classes, their field and method lists and every method's
// slot types are carved from one array each, one Builder emits every
// method into one reused buffer, and each method's code is copied out
// once, at its exact size.
func Compile(ch *minijava.Checked) (*bytecode.Program, error) {
	p := bytecode.NewProgram()
	g := &gen{ch: ch, b: &bytecode.Builder{}, chain: make([]*minijava.Binary, 0, 16)}
	nfields, nmethods, nslots := 0, 0, 0
	for _, cd := range ch.Prog.Classes {
		nfields += len(cd.Fields)
		nmethods += len(cd.Methods)
		for _, md := range cd.Methods {
			nslots += len(ch.Slots[md])
		}
	}
	// An operand names a field, a method, a class or a scalar element type.
	g.b.Reserve(nfields + nmethods + len(ch.Prog.Classes) + 2)
	classes := make([]bytecode.Class, len(ch.Prog.Classes))
	fields := make([]*bytecode.Field, nfields)
	methods := make([]*bytecode.Method, nmethods)
	g.slots = make([]*bytecode.Type, nslots)
	for i, cd := range ch.Prog.Classes {
		ci := ch.Classes[cd.Name]
		cls := &classes[i]
		cls.Name = cd.Name
		cls.Fields, fields = fields[:len(cd.Fields):len(cd.Fields)], fields[len(cd.Fields):]
		cls.Methods, methods = methods[:len(cd.Methods):len(cd.Methods)], methods[len(cd.Methods):]
		for j, fd := range cd.Fields {
			cls.Fields[j] = ci.Fields[fd.Name]
		}
		for j, md := range cd.Methods {
			cls.Methods[j] = g.method(ci, md)
		}
		p.AddClass(cls)
	}
	if g.err != nil {
		return nil, g.err
	}
	if main, err := ch.FindMain(); err == nil {
		p.Main = main
	}
	return p, nil
}

// gen is the code generator of one program. A checked program has no
// construct the generator does not know, so its errors are internal, and
// Compile returns the first.
type gen struct {
	ch *minijava.Checked
	b  *bytecode.Builder
	// slots is what is left of the program's slot types array.
	slots []*bytecode.Type
	// chain holds the links of the operator chains being emitted (see
	// binary).
	chain []*minijava.Binary
	err   error
}

// fail records an internal error, unless one is recorded already.
func (g *gen) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("codegen: "+format, args...)
	}
}

// method lowers one method declaration of class ci.
func (g *gen) method(ci *minijava.ClassInfo, md *minijava.MethodDecl) *bytecode.Method {
	sig := ci.Methods[md.Name]
	b := g.b.Start(ci.Decl.Name, md.Name, md.Static)
	if md.Ctor {
		b.SetCtor()
	}
	b.SetReturn(sig.Return)
	m := b.Method()
	// The checker-assigned slots: receiver, params, locals.
	k := copy(g.slots, g.ch.Slots[md])
	m.SlotTypes, g.slots = g.slots[:k:k], g.slots[k:]
	m.Params = sig.Params

	g.stmt(md.Body)
	if sig.Return == bytecode.Void {
		// Implicit return for void methods and constructors.
		b.Return()
	} else {
		// A value-returning method that falls off the end is a source
		// bug; trap it so the VM fails loudly rather than silently.
		b.Op(bytecode.OpTrap)
	}
	return b.Build()
}

// setLine tags the instruction at pc with a source line.
func (g *gen) setLine(pc, line int) {
	m := g.b.Method()
	if pc >= 0 && pc < len(m.Code) {
		m.Code[pc].Line = int32(line)
	}
}

func (g *gen) stmt(s minijava.Stmt) {
	switch st := s.(type) {
	case *minijava.Block:
		for _, inner := range st.Stmts {
			g.stmt(inner)
		}
	case *minijava.VarDecl:
		if st.Init != nil {
			g.expr(st.Init)
		} else {
			// Default-initialize, mirroring the JVM's zeroed frame
			// discipline and giving the verifier a defined type at
			// every pc.
			g.pushZero(st.DeclType)
		}
		pc := g.b.Store(st.Slot)
		g.setLine(pc, st.Line)
	case *minijava.If:
		elseL, endL := g.b.NewLabel(), g.b.NewLabel()
		g.expr(st.Cond)
		if st.Else != nil {
			g.b.IfFalse(elseL)
			g.stmt(st.Then)
			g.b.Goto(endL)
			g.b.Bind(elseL)
			g.stmt(st.Else)
			g.b.Bind(endL)
		} else {
			g.b.IfFalse(endL)
			g.stmt(st.Then)
			g.b.Bind(endL)
		}
	case *minijava.While:
		top, end := g.b.NewLabel(), g.b.NewLabel()
		g.b.Bind(top)
		g.expr(st.Cond)
		g.b.IfFalse(end)
		g.stmt(st.Body)
		g.b.Goto(top)
		g.b.Bind(end)
	case *minijava.For:
		top, end := g.b.NewLabel(), g.b.NewLabel()
		if st.Init != nil {
			g.stmt(st.Init)
		}
		g.b.Bind(top)
		if st.Cond != nil {
			g.expr(st.Cond)
			g.b.IfFalse(end)
		}
		g.stmt(st.Body)
		if st.Post != nil {
			g.stmt(st.Post)
		}
		g.b.Goto(top)
		g.b.Bind(end)
	case *minijava.Return:
		if st.Value != nil {
			g.expr(st.Value)
			pc := g.b.ReturnValue()
			g.setLine(pc, st.Line)
		} else {
			pc := g.b.Return()
			g.setLine(pc, st.Line)
		}
	case *minijava.ExprStmt:
		g.expr(st.E)
		if st.E.Type() != bytecode.Void {
			g.b.Op(bytecode.OpPop)
		}
	case *minijava.Print:
		g.expr(st.E)
		pc := g.b.Op(bytecode.OpPrint)
		g.setLine(pc, st.Line)
	case *minijava.Spawn:
		g.expr(st.Call.Recv)
		pc := g.b.Spawn(st.Call.Method)
		g.setLine(pc, st.Line)
	case *minijava.Assign:
		g.assign(st)
	default:
		g.fail("unknown statement %T", s)
	}
}

// pushZero pushes the default value for a type.
func (g *gen) pushZero(t *bytecode.Type) {
	switch {
	case t == bytecode.Int || t.Kind == bytecode.KindInt:
		g.b.Const(0)
	case t == bytecode.Bool || t.Kind == bytecode.KindBool:
		g.b.ConstBool(false)
	default:
		g.b.Null()
	}
}

func (g *gen) assign(st *minijava.Assign) {
	switch lhs := st.LHS.(type) {
	case *minijava.Ident:
		switch lhs.Kind {
		case minijava.SymLocal:
			g.expr(st.RHS)
			pc := g.b.Store(lhs.Slot)
			g.setLine(pc, st.Line)
		case minijava.SymField:
			g.b.Load(0) // this
			g.expr(st.RHS)
			pc := g.b.PutField(lhs.Field)
			g.setLine(pc, st.Line)
		case minijava.SymStaticField:
			g.expr(st.RHS)
			pc := g.b.PutStatic(lhs.Field)
			g.setLine(pc, st.Line)
		default:
			g.fail("bad assignment target kind %v", lhs.Kind)
		}
	case *minijava.FieldAccess:
		if lhs.Static {
			g.expr(st.RHS)
			pc := g.b.PutStatic(lhs.Field)
			g.setLine(pc, st.Line)
			return
		}
		g.expr(lhs.Obj)
		g.expr(st.RHS)
		pc := g.b.PutField(lhs.Field)
		g.setLine(pc, st.Line)
	case *minijava.Index:
		g.expr(lhs.Arr)
		g.expr(lhs.Index)
		g.expr(st.RHS)
		op := bytecode.OpIAStore
		if lhs.Arr.Type().IsRefArray() {
			op = bytecode.OpAAStore
		}
		pc := g.b.Op(op)
		g.setLine(pc, st.Line)
	default:
		g.fail("unknown assignment target %T", st.LHS)
	}
}

func (g *gen) expr(e minijava.Expr) {
	switch ex := e.(type) {
	case *minijava.IntLit:
		g.b.Const(ex.Val)
	case *minijava.BoolLit:
		g.b.ConstBool(ex.Val)
	case *minijava.NullLit:
		g.b.Null()
	case *minijava.This:
		g.b.Load(0)
	case *minijava.Ident:
		switch ex.Kind {
		case minijava.SymLocal:
			g.b.Load(ex.Slot)
		case minijava.SymField:
			g.b.Load(0)
			g.b.GetField(ex.Field)
		case minijava.SymStaticField:
			g.b.GetStatic(ex.Field)
		default:
			g.fail("identifier %s not a value", ex.Name)
		}
	case *minijava.FieldAccess:
		if ex.Static {
			g.b.GetStatic(ex.Field)
			return
		}
		g.expr(ex.Obj)
		g.b.GetField(ex.Field)
	case *minijava.Index:
		g.expr(ex.Arr)
		g.expr(ex.Index)
		if ex.Arr.Type().IsRefArray() {
			g.b.Op(bytecode.OpAALoad)
		} else {
			g.b.Op(bytecode.OpIALoad)
		}
	case *minijava.Length:
		g.expr(ex.Arr)
		g.b.Op(bytecode.OpArrayLength)
	case *minijava.NewObject:
		pc := g.b.Emit(bytecode.Instr{Op: bytecode.OpNewInstance, Ref: g.b.Operand(bytecode.Operand{Type: ex.Type()})})
		g.setLine(pc, ex.Line)
		if ex.Ctor != nil {
			g.b.Op(bytecode.OpDup)
			for _, a := range ex.Args {
				g.expr(a)
			}
			cpc := g.b.Invoke(*ex.Ctor)
			g.setLine(cpc, ex.Line)
		}
	case *minijava.NewArray:
		g.expr(ex.Len)
		pc := g.b.Emit(bytecode.Instr{Op: bytecode.OpNewArray, Ref: g.b.Operand(bytecode.Operand{Type: ex.ElemType})})
		g.setLine(pc, ex.Line)
	case *minijava.Call:
		if !ex.Static {
			if ex.Recv != nil {
				g.expr(ex.Recv)
			} else {
				g.b.Load(0) // implicit this
			}
		}
		for _, a := range ex.Args {
			g.expr(a)
		}
		pc := g.b.Invoke(ex.Method)
		g.setLine(pc, ex.Line)
	case *minijava.Unary:
		g.expr(ex.X)
		switch ex.Op {
		case "-":
			g.b.Op(bytecode.OpNeg)
		case "!":
			g.b.Op(bytecode.OpNot)
		default:
			g.fail("unknown unary op %s", ex.Op)
		}
	case *minijava.Binary:
		g.binary(ex)
	default:
		g.fail("unknown expression %T", e)
	}
}

var intBinOps = map[string]bytecode.Op{
	"+": bytecode.OpAdd, "-": bytecode.OpSub, "*": bytecode.OpMul,
	"/": bytecode.OpDiv, "%": bytecode.OpRem,
	"<": bytecode.OpCmpLT, "<=": bytecode.OpCmpLE,
	">": bytecode.OpCmpGT, ">=": bytecode.OpCmpGE,
}

// binary emits ex and, by a loop, the left-deep chain of binary operators
// under it (1+1+…+1): only right operands recurse, so a chain of any length
// fits the stack. chain holds the links of every chain being emitted,
// innermost last.
func (g *gen) binary(ex *minijava.Binary) {
	base := len(g.chain)
	for b := ex; b != nil; b, _ = b.X.(*minijava.Binary) {
		g.chain = append(g.chain, b)
	}
	g.expr(g.chain[len(g.chain)-1].X)
	for i := len(g.chain) - 1; i >= base; i-- {
		g.link(g.chain[i])
	}
	g.chain = g.chain[:base]
}

// link emits the operator of ex and its right operand, its left operand
// being on the stack.
func (g *gen) link(ex *minijava.Binary) {
	switch ex.Op {
	case "&&", "||":
		// Short-circuit with the dup pattern: the left value survives on
		// the stack when it decides the result.
		end := g.b.NewLabel()
		g.b.Op(bytecode.OpDup)
		if ex.Op == "&&" {
			g.b.IfFalse(end)
		} else {
			g.b.IfTrue(end)
		}
		g.b.Op(bytecode.OpPop)
		g.expr(ex.Y)
		g.b.Bind(end)
	case "==", "!=":
		g.expr(ex.Y)
		xt, yt := ex.X.Type(), ex.Y.Type()
		isRef := xt.IsRef() || yt.IsRef() ||
			(xt.Kind == bytecode.KindClass && xt.Class == "<null>") ||
			(yt.Kind == bytecode.KindClass && yt.Class == "<null>")
		if isRef {
			if ex.Op == "==" {
				g.b.Op(bytecode.OpRefEQ)
			} else {
				g.b.Op(bytecode.OpRefNE)
			}
		} else {
			if ex.Op == "==" {
				g.b.Op(bytecode.OpCmpEQ)
			} else {
				g.b.Op(bytecode.OpCmpNE)
			}
		}
	default:
		g.expr(ex.Y)
		if op, ok := intBinOps[ex.Op]; ok {
			g.b.Op(op)
		} else {
			g.fail("unknown binary op %s", ex.Op)
		}
	}
}
