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
func Compile(ch *minijava.Checked) (*bytecode.Program, error) {
	p := bytecode.NewProgram()
	for _, cd := range ch.Prog.Classes {
		ci := ch.Classes[cd.Name]
		cls := &bytecode.Class{Name: cd.Name}
		for _, fd := range cd.Fields {
			cls.Fields = append(cls.Fields, ci.Fields[fd.Name])
		}
		for _, md := range cd.Methods {
			m, err := compileMethod(ch, ci, md)
			if err != nil {
				return nil, err
			}
			cls.Methods = append(cls.Methods, m)
		}
		p.AddClass(cls)
	}
	if main, err := ch.FindMain(); err == nil {
		p.Main = main
	}
	return p, nil
}

// gen is the per-method code generator.
type gen struct {
	ch     *minijava.Checked
	class  *minijava.ClassInfo
	method *minijava.MethodSig
	b      *bytecode.Builder
	labels int
}

func compileMethod(ch *minijava.Checked, ci *minijava.ClassInfo, md *minijava.MethodDecl) (*bytecode.Method, error) {
	sig := ci.Methods[md.Name]
	b := bytecode.NewBuilder(ci.Decl.Name, md.Name, md.Static)
	if md.Ctor {
		b.SetCtor()
	}
	b.SetReturn(sig.Return)
	// Declare the checker-assigned slots (receiver, params, locals).
	for _, st := range ch.Slots[md] {
		b.DeclareSlot(st)
	}
	b.Method().Params = sig.Params

	g := &gen{ch: ch, class: ci, method: sig, b: b}
	if err := g.stmt(md.Body); err != nil {
		return nil, err
	}
	if sig.Return == bytecode.Void {
		// Implicit return for void methods and constructors.
		b.Return()
	} else {
		// A value-returning method that falls off the end is a source
		// bug; trap it so the VM fails loudly rather than silently.
		b.Op(bytecode.OpTrap)
	}
	return b.Build(), nil
}

// setLine tags the instruction at pc with a source line.
func (g *gen) setLine(pc, line int) {
	m := g.b.Method()
	if pc >= 0 && pc < len(m.Code) {
		m.Code[pc].Line = line
	}
}

func (g *gen) newLabel(prefix string) string {
	g.labels++
	return fmt.Sprintf("%s%d", prefix, g.labels)
}

func (g *gen) stmt(s minijava.Stmt) error {
	switch st := s.(type) {
	case *minijava.Block:
		for _, inner := range st.Stmts {
			if err := g.stmt(inner); err != nil {
				return err
			}
		}
		return nil
	case *minijava.VarDecl:
		if st.Init != nil {
			if err := g.expr(st.Init); err != nil {
				return err
			}
		} else {
			// Default-initialize, mirroring the JVM's zeroed frame
			// discipline and giving the verifier a defined type at
			// every pc.
			g.pushZero(st.DeclType)
		}
		pc := g.b.Store(st.Slot)
		g.setLine(pc, st.Line)
		return nil
	case *minijava.If:
		elseL := g.newLabel("else")
		endL := g.newLabel("endif")
		if err := g.expr(st.Cond); err != nil {
			return err
		}
		if st.Else != nil {
			g.b.IfFalse(elseL)
			if err := g.stmt(st.Then); err != nil {
				return err
			}
			g.b.Goto(endL)
			g.b.Label(elseL)
			if err := g.stmt(st.Else); err != nil {
				return err
			}
			g.b.Label(endL)
		} else {
			g.b.IfFalse(endL)
			if err := g.stmt(st.Then); err != nil {
				return err
			}
			g.b.Label(endL)
		}
		return nil
	case *minijava.While:
		top := g.newLabel("while")
		end := g.newLabel("endwhile")
		g.b.Label(top)
		if err := g.expr(st.Cond); err != nil {
			return err
		}
		g.b.IfFalse(end)
		if err := g.stmt(st.Body); err != nil {
			return err
		}
		g.b.Goto(top)
		g.b.Label(end)
		return nil
	case *minijava.For:
		top := g.newLabel("for")
		end := g.newLabel("endfor")
		if st.Init != nil {
			if err := g.stmt(st.Init); err != nil {
				return err
			}
		}
		g.b.Label(top)
		if st.Cond != nil {
			if err := g.expr(st.Cond); err != nil {
				return err
			}
			g.b.IfFalse(end)
		}
		if err := g.stmt(st.Body); err != nil {
			return err
		}
		if st.Post != nil {
			if err := g.stmt(st.Post); err != nil {
				return err
			}
		}
		g.b.Goto(top)
		g.b.Label(end)
		return nil
	case *minijava.Return:
		if st.Value != nil {
			if err := g.expr(st.Value); err != nil {
				return err
			}
			pc := g.b.ReturnValue()
			g.setLine(pc, st.Line)
		} else {
			pc := g.b.Return()
			g.setLine(pc, st.Line)
		}
		return nil
	case *minijava.ExprStmt:
		if err := g.expr(st.E); err != nil {
			return err
		}
		if st.E.Type() != bytecode.Void {
			g.b.Op(bytecode.OpPop)
		}
		return nil
	case *minijava.Print:
		if err := g.expr(st.E); err != nil {
			return err
		}
		pc := g.b.Op(bytecode.OpPrint)
		g.setLine(pc, st.Line)
		return nil
	case *minijava.Spawn:
		if err := g.expr(st.Call.Recv); err != nil {
			return err
		}
		pc := g.b.Spawn(st.Call.Method)
		g.setLine(pc, st.Line)
		return nil
	case *minijava.Assign:
		return g.assign(st)
	default:
		return fmt.Errorf("codegen: unknown statement %T", s)
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

func (g *gen) assign(st *minijava.Assign) error {
	switch lhs := st.LHS.(type) {
	case *minijava.Ident:
		switch lhs.Kind {
		case minijava.SymLocal:
			if err := g.expr(st.RHS); err != nil {
				return err
			}
			pc := g.b.Store(lhs.Slot)
			g.setLine(pc, st.Line)
		case minijava.SymField:
			g.b.Load(0) // this
			if err := g.expr(st.RHS); err != nil {
				return err
			}
			pc := g.b.PutField(lhs.Field)
			g.setLine(pc, st.Line)
		case minijava.SymStaticField:
			if err := g.expr(st.RHS); err != nil {
				return err
			}
			pc := g.b.PutStatic(lhs.Field)
			g.setLine(pc, st.Line)
		default:
			return fmt.Errorf("codegen: bad assignment target kind %v", lhs.Kind)
		}
		return nil
	case *minijava.FieldAccess:
		if lhs.Static {
			if err := g.expr(st.RHS); err != nil {
				return err
			}
			pc := g.b.PutStatic(lhs.Field)
			g.setLine(pc, st.Line)
			return nil
		}
		if err := g.expr(lhs.Obj); err != nil {
			return err
		}
		if err := g.expr(st.RHS); err != nil {
			return err
		}
		pc := g.b.PutField(lhs.Field)
		g.setLine(pc, st.Line)
		return nil
	case *minijava.Index:
		if err := g.expr(lhs.Arr); err != nil {
			return err
		}
		if err := g.expr(lhs.Index); err != nil {
			return err
		}
		if err := g.expr(st.RHS); err != nil {
			return err
		}
		op := bytecode.OpIAStore
		if lhs.Arr.Type().IsRefArray() {
			op = bytecode.OpAAStore
		}
		pc := g.b.Op(op)
		g.setLine(pc, st.Line)
		return nil
	default:
		return fmt.Errorf("codegen: unknown assignment target %T", st.LHS)
	}
}

func (g *gen) expr(e minijava.Expr) error {
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
			return fmt.Errorf("codegen: identifier %s not a value", ex.Name)
		}
	case *minijava.FieldAccess:
		if ex.Static {
			g.b.GetStatic(ex.Field)
			return nil
		}
		if err := g.expr(ex.Obj); err != nil {
			return err
		}
		g.b.GetField(ex.Field)
	case *minijava.Index:
		if err := g.expr(ex.Arr); err != nil {
			return err
		}
		if err := g.expr(ex.Index); err != nil {
			return err
		}
		if ex.Arr.Type().IsRefArray() {
			g.b.Op(bytecode.OpAALoad)
		} else {
			g.b.Op(bytecode.OpIALoad)
		}
	case *minijava.Length:
		if err := g.expr(ex.Arr); err != nil {
			return err
		}
		g.b.Op(bytecode.OpArrayLength)
	case *minijava.NewObject:
		pc := g.b.New(ex.ClassName)
		g.setLine(pc, ex.Line)
		if ex.Ctor != nil {
			g.b.Op(bytecode.OpDup)
			for _, a := range ex.Args {
				if err := g.expr(a); err != nil {
					return err
				}
			}
			cpc := g.b.Invoke(*ex.Ctor)
			g.setLine(cpc, ex.Line)
		}
	case *minijava.NewArray:
		if err := g.expr(ex.Len); err != nil {
			return err
		}
		pc := g.b.Emit(bytecode.Instr{Op: bytecode.OpNewArray, Type: ex.ElemType})
		g.setLine(pc, ex.Line)
	case *minijava.Call:
		if !ex.Static {
			if ex.Recv != nil {
				if err := g.expr(ex.Recv); err != nil {
					return err
				}
			} else {
				g.b.Load(0) // implicit this
			}
		}
		for _, a := range ex.Args {
			if err := g.expr(a); err != nil {
				return err
			}
		}
		pc := g.b.Invoke(ex.Method)
		g.setLine(pc, ex.Line)
	case *minijava.Unary:
		if err := g.expr(ex.X); err != nil {
			return err
		}
		switch ex.Op {
		case "-":
			g.b.Op(bytecode.OpNeg)
		case "!":
			g.b.Op(bytecode.OpNot)
		default:
			return fmt.Errorf("codegen: unknown unary op %s", ex.Op)
		}
	case *minijava.Binary:
		return g.binary(ex)
	default:
		return fmt.Errorf("codegen: unknown expression %T", e)
	}
	return nil
}

var intBinOps = map[string]bytecode.Op{
	"+": bytecode.OpAdd, "-": bytecode.OpSub, "*": bytecode.OpMul,
	"/": bytecode.OpDiv, "%": bytecode.OpRem,
	"<": bytecode.OpCmpLT, "<=": bytecode.OpCmpLE,
	">": bytecode.OpCmpGT, ">=": bytecode.OpCmpGE,
}

func (g *gen) binary(ex *minijava.Binary) error {
	switch ex.Op {
	case "&&", "||":
		// Short-circuit with the dup pattern: the left value survives on
		// the stack when it decides the result.
		end := g.newLabel("sc")
		if err := g.expr(ex.X); err != nil {
			return err
		}
		g.b.Op(bytecode.OpDup)
		if ex.Op == "&&" {
			g.b.IfFalse(end)
		} else {
			g.b.IfTrue(end)
		}
		g.b.Op(bytecode.OpPop)
		if err := g.expr(ex.Y); err != nil {
			return err
		}
		g.b.Label(end)
		return nil
	case "==", "!=":
		if err := g.expr(ex.X); err != nil {
			return err
		}
		if err := g.expr(ex.Y); err != nil {
			return err
		}
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
		return nil
	default:
		op, ok := intBinOps[ex.Op]
		if !ok {
			return fmt.Errorf("codegen: unknown binary op %s", ex.Op)
		}
		if err := g.expr(ex.X); err != nil {
			return err
		}
		if err := g.expr(ex.Y); err != nil {
			return err
		}
		g.b.Op(op)
		return nil
	}
}
