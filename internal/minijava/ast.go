package minijava

import "satbelim/internal/bytecode"

// Program is a parsed compilation unit (one or more classes).
type Program struct {
	Classes []*ClassDecl

	a *arena // the memory of the tree; nil once released
}

// Release hands the memory of the tree, and of the tokens it was parsed
// from, to the next Parse. Nothing of the tree, and nothing that points
// into it such as the Checked program, may be read afterwards: Classes is
// nil, and the next Parse overwrites the nodes. A nil Program, or one
// released already, has nothing to release.
func (p *Program) Release() {
	if p == nil || p.a == nil {
		return
	}
	p.a.release()
	p.Classes, p.a = nil, nil
}

// ClassDecl is a parsed class.
type ClassDecl struct {
	Name    string
	Fields  []*FieldDecl
	Methods []*MethodDecl
	Line    int
}

// FieldDecl is a parsed field declaration.
type FieldDecl struct {
	Name   string
	Type   *TypeExpr
	Static bool
	Line   int
}

// Param is a formal parameter.
type Param struct {
	Name string
	Type *TypeExpr
	Line int
}

// MethodDecl is a parsed method or constructor.
type MethodDecl struct {
	Name   string
	Static bool
	Ctor   bool
	Params []*Param
	Return *TypeExpr // nil for void and constructors
	Body   *Block
	Line   int
}

// TypeExpr is a syntactic type: a base name plus array dimensions.
type TypeExpr struct {
	Base string // "int", "boolean", or a class name
	Dims int
	Line int
}

// Stmt is implemented by all statement nodes.
type Stmt interface{ stmtNode() }

// Expr is implemented by all expression nodes. After type checking,
// Type() returns the expression's static type.
type Expr interface {
	exprNode()
	Type() *bytecode.Type
}

// exprType carries the checker-assigned static type.
type exprType struct{ T *bytecode.Type }

func (e *exprType) Type() *bytecode.Type { return e.T }

// setType is used by the checker.
func (e *exprType) setType(t *bytecode.Type) { e.T = t }

// Block is a brace-delimited statement list.
type Block struct {
	Stmts []Stmt
	Line  int
}

// VarDecl declares a local variable, optionally initialized.
type VarDecl struct {
	Name     string
	TypeExpr *TypeExpr
	Init     Expr // may be nil
	Line     int

	// Set by the checker:
	Slot     int
	DeclType *bytecode.Type
}

// If is a conditional statement.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Line int
}

// While is a while loop.
type While struct {
	Cond Expr
	Body Stmt
	Line int
}

// For is a C-style for loop. Init and Post may be nil; Cond may be nil
// (meaning true).
type For struct {
	Init Stmt
	Cond Expr
	Post Stmt
	Body Stmt
	Line int
}

// Return exits the enclosing method.
type Return struct {
	Value Expr // may be nil
	Line  int
}

// ExprStmt evaluates an expression (a call) for effect.
type ExprStmt struct {
	E    Expr
	Line int
}

// Print emits an integer on the VM output.
type Print struct {
	E    Expr
	Line int
}

// Spawn starts an instance method on a new thread.
type Spawn struct {
	Call *CallExpr
	Line int
}

// Assign stores RHS into an lvalue (local, field, static field, or array
// element).
type Assign struct {
	LHS  Expr
	RHS  Expr
	Line int
}

func (*Block) stmtNode()    {}
func (*VarDecl) stmtNode()  {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*For) stmtNode()      {}
func (*Return) stmtNode()   {}
func (*ExprStmt) stmtNode() {}
func (*Print) stmtNode()    {}
func (*Spawn) stmtNode()    {}
func (*Assign) stmtNode()   {}

// IntLit is an integer literal.
type IntLit struct {
	exprType
	Val  int64
	Line int
}

// BoolLit is true or false.
type BoolLit struct {
	exprType
	Val  bool
	Line int
}

// NullLit is the null literal.
type NullLit struct {
	exprType
	Line int
}

// This is the receiver reference.
type This struct {
	exprType
	Line int
}

// SymKind says what an identifier resolved to.
type SymKind int

const (
	SymUnresolved SymKind = iota
	// SymLocal: a local variable or parameter; Slot is set.
	SymLocal
	// SymField: an instance field of the enclosing class accessed through
	// the implicit this; Field is set.
	SymField
	// SymStaticField: a static field of the enclosing class; Field is set.
	SymStaticField
	// SymClass: a class name (only legal as the receiver of a static
	// member access).
	SymClass
)

// Ident is a bare identifier.
type Ident struct {
	exprType
	Name string
	Line int

	// Set by the checker:
	Kind  SymKind
	Slot  int
	Field bytecode.FieldRef
}

// FieldAccess is obj.name (instance) or Class.name (static).
type FieldAccess struct {
	exprType
	Obj  Expr
	Name string
	Line int

	// Set by the checker:
	Static bool
	Field  bytecode.FieldRef
}

// Index is arr[i].
type Index struct {
	exprType
	Arr   Expr
	Index Expr
	Line  int
}

// Length is arr.length.
type Length struct {
	exprType
	Arr  Expr
	Line int
}

// NewObject is new C(args).
type NewObject struct {
	exprType
	ClassName string
	Args      []Expr
	Line      int

	// Set by the checker: the constructor, if the class declares one.
	Ctor *bytecode.MethodRef
}

// NewArray is new Elem[len] with optional extra [] dims on the element.
type NewArray struct {
	exprType
	Elem *TypeExpr // element type (extra dims folded in)
	Len  Expr
	Line int

	// Set by the checker:
	ElemType *bytecode.Type
}

// Call is recv.name(args), Class.name(args), or name(args).
type Call struct {
	exprType
	Recv Expr // nil for a bare call
	Name string
	Args []Expr
	Line int

	// Set by the checker:
	Static bool
	Method bytecode.MethodRef
}

// CallExpr is an alias kept for readability at spawn sites.
type CallExpr = Call

// Unary is -x or !x.
type Unary struct {
	exprType
	Op   string
	X    Expr
	Line int
}

// Binary is x op y. && and || short-circuit.
type Binary struct {
	exprType
	Op   string
	X, Y Expr
	Line int
}

func (*IntLit) exprNode()      {}
func (*BoolLit) exprNode()     {}
func (*NullLit) exprNode()     {}
func (*This) exprNode()        {}
func (*Ident) exprNode()       {}
func (*FieldAccess) exprNode() {}
func (*Index) exprNode()       {}
func (*Length) exprNode()      {}
func (*NewObject) exprNode()   {}
func (*NewArray) exprNode()    {}
func (*Call) exprNode()        {}
func (*Unary) exprNode()       {}
func (*Binary) exprNode()      {}
