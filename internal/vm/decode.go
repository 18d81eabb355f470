package vm

import (
	"sync/atomic"

	"satbelim/internal/bytecode"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
)

// This file implements the decode half of the pre-decoded execution
// engine: every method's bytecode is translated into a dense internal form
// (dinstr) whose operands are fully resolved — the field and method
// numbers the method's Body already holds become storage slots and
// *dmethod pointers, barrier sites become pre-classified site records
// carrying the elision verdict decided once here instead of per execution.
// A second pass fuses the hottest instruction sequences (loop headers,
// local increments, array element stores, field stores from locals) into
// superinstructions.
//
// The result is an image (dprogram): read-only, decoded once per verdict
// table and projection and shared by every VM of them (imageOf), whatever
// its engine. The compiled tier's translations belong to it too, published
// once per method (dmethod.compiled). What a run changes is the VM's own,
// by method or site number (mstate, siteStats).
//
// Fusion never changes semantics: the per-pc plain instructions are kept
// alongside each fused head, and the executor only takes the fused form
// when the whole sequence fits in the remaining scheduler quantum and
// instruction budget — otherwise it replays the exact per-instruction
// path of the reference interpreter, including mid-sequence thread
// rotation. Branches into the middle of a fused region simply execute the
// plain instructions at those pcs.

// dop is a dense decoded opcode.
type dop uint8

const (
	dNop dop = iota
	dConst
	dConstNull
	dLoad
	dStore
	dDup
	dPop
	dAdd
	dSub
	dMul
	dDiv
	dRem
	dNeg
	dAnd
	dOr
	dNot
	dCmpEQ
	dCmpNE
	dCmpLT
	dCmpLE
	dCmpGT
	dCmpGE
	dRefEQ
	dRefNE
	dGoto
	dIfTrue
	dIfFalse
	dIfNull
	dIfNonNull
	dGetFieldRef
	dGetFieldInt
	dPutFieldRef
	dPutFieldInt
	dGetStaticRef
	dGetStaticInt
	dPutStaticRef
	dPutStaticInt
	dNewInstance
	dNewArrayRef
	dNewArrayInt
	dArrayLength
	dAALoad
	dIALoad
	dAAStore
	dIAStore
	dInvoke
	dSpawn
	dReturn
	dReturnValue
	dPrint
	dTrap

	// Superinstructions (only ever appear in dmethod.fused, never in
	// dmethod.code). Naming: L = load local, C = constant.
	fLLCmpBr    // load x; load y; cmp; iftrue/iffalse
	fLCCmpBr    // load x; const; cmp; iftrue/iffalse
	fIncLocal   // load x; const; add/sub/mul; store y
	fLLArith    // load x; load y; add/sub/mul
	fLCArith    // load x; const; add/sub/mul
	fConstStore // const; store y
	fLGetFieldRef
	fLGetFieldInt // load obj; getfield
	fLLPutFieldRef
	fLLPutFieldInt // load obj; load val; putfield
	fLLAALoad
	fLLIALoad // load arr; load idx; aaload/iaload
	fLLLAAStore
	fLLLIAStore // load arr; load idx; load val; aastore/iastore
)

// dinstr is one decoded instruction. Operand meaning depends on op:
// slot index (load/store), branch target pc (branches), or an index into
// one of the method's operand tables (fields, statics, allocs, callees;
// b is the site number of barriered stores).
type dinstr struct {
	op   dop
	fuse int32 // index into dmethod.fused; -1 when this pc heads no fusion
	a    int32
	b    int32
	imm  int64
	line int32
}

// finstr is one superinstruction. n is the number of base instructions it
// covers (the unit the scheduler quantum and Result.Steps count in).
type finstr struct {
	op            dop
	n             int8
	a, b, c, d, e int32
	imm           int64
	site          int32
}

// fieldRec is a resolved instance-field operand. Its kind is the
// instruction's (dGetFieldRef, dPutFieldInt, …), as a static's is.
type fieldRec struct {
	ref bytecode.FieldRef
	idx int32
}

// calleeRec is a resolved call target. ref is the call's operand in the
// caller's pool (dmethod.pool), which the null-receiver diagnostic names.
type calleeRec struct {
	m   *dmethod
	ref int32
}

// siteRec is a barriered store site: elide is what the image's projection
// made of the analysis verdict at its pc. What the site did in a run is the
// VM's, under the same site number (VM.siteStats).
type siteRec struct {
	key   satb.SiteKey
	kind  satb.SiteKind
	elide satb.ElideKind
}

// dmethod is one decoded method, part of an image and so read-only; num is
// its method number, which indexes a VM's own state for it (mstate). src and
// body are the method's bytecode and Body, all the switch interpreter reads
// of it; the decoded engines read code and fused.
type dmethod struct {
	src      *bytecode.Method
	body     *bytecode.Body
	name     string // qualified "Class.Name"
	pool     *bytecode.Pool
	num      int32
	static   bool
	numArgs  int
	numSlots int
	stackCap int

	code    []dinstr
	fused   []finstr
	fields  []fieldRec
	statics []int32 // slots in the heap's static storage
	allocs  []*bytecode.ClassSym
	callees []calleeRec

	// compiled is the method's compiled-tier translation, made by the first
	// VM of the image to tier the method up and installed by every later
	// one (tierUp), whatever the flavor. The one field of an image written
	// after decode, and only by compare-and-swap from nil.
	compiled atomic.Pointer[cmethod]
}

// mstate is what one VM changes about one method while it runs.
type mstate struct {
	// pool recycles frames; steady-state call-heavy execution allocates
	// nothing per invoke. recycled counts pool hits for the
	// observability layer (plain counter: the VM is single-goroutine).
	pool     []*frame
	recycled int64

	// Compiled-tier state (EngineCompiled only; both are inert on the other
	// engines). hotness counts method entries plus loop back-edges observed
	// on fused dispatch; tier is the image's translation this VM installed
	// at tier-up, nil before it.
	hotness int64
	tier    *cmethod
}

// maxFramePool bounds the per-method free list (deep recursion spikes
// should not pin frames forever).
const maxFramePool = 64

// acquire returns a frame of m with zeroed locals and an empty stack.
func (v *VM) acquire(m *dmethod) *frame {
	s := &v.ms[m.num]
	if n := len(s.pool); n > 0 {
		f := s.pool[n-1]
		s.pool = s.pool[:n-1]
		s.recycled++
		f.pc, f.sp = 0, 0
		loc := f.locals
		for i := range loc {
			loc[i] = value{}
		}
		return f
	}
	return newFrame(m)
}

// release returns a frame to its method's pool.
func (v *VM) release(f *frame) {
	if s := &v.ms[f.m.num]; len(s.pool) < maxFramePool {
		s.pool = append(s.pool, f)
	}
}

// framesRecycled counts the frames acquire took from a pool this run.
func (v *VM) framesRecycled() (n int64) {
	for i := range v.ms {
		n += v.ms[i].recycled
	}
	return n
}

// dprogram is a decoded program, an image: methods is indexed by method
// number, sites by the site number decode assigns (in method, then pc
// order). entry is the Main it was decoded for; err why the program is not
// runnable, in which case the image has nothing else.
type dprogram struct {
	main    *dmethod
	methods []*dmethod
	sites   []siteRec
	entry   bytecode.MethodRef
	err     error
}

// projection is the set of analysis verdicts a VM applies as published,
// bit k for verdict k; a site with any other verdict keeps its barrier. It
// is the barrier flavor's soundness table and all of the flavor that
// decode reads, so flavors with one table share an image: the seven
// flavors have three (every verdict, pre-null only, none).
type projection uint8

// allVerdicts applies every verdict: the SATB flavors' table, and what the
// forceRawElide test hook runs with.
const allVerdicts = projection(1<<satb.ElideRearrange | 1<<satb.ElideNullOrSame | 1<<satb.ElidePreNull)

func projectionOf(spec *satb.BarrierSpec) (pr projection) {
	for k := satb.ElideRearrange; k <= satb.ElidePreNull; k++ {
		if spec.Sound(k) {
			pr |= 1 << k
		}
	}
	return pr
}

// apply maps an analysis verdict to the one the VM runs the site with.
func (pr projection) apply(k satb.ElideKind) satb.ElideKind {
	if pr&(1<<k) == 0 {
		return satb.ElideNone
	}
	return k
}

// images is a verdict table's images by projection, held in the slot the
// table keeps for them (bytecode.Verdicts.Decoded): an image belongs to the
// verdicts it was decoded under, and a new table — a re-analysis, a Clone,
// AddClass — starts without any.
type images [allVerdicts + 1]atomic.Pointer[dprogram]

// imageOf returns p's image under the verdicts vt and projection pr,
// decoding one when there is none or it was decoded for another Main.
// Concurrent first users may each decode; one image is kept and each runs
// its own, all equal. The image of a program that is not runnable is kept
// like any other, so its VMs do not check it again.
func imageOf(p *bytecode.Program, vt *bytecode.Verdicts, pr projection) *dprogram {
	slot := vt.Decoded()
	ims, _ := slot.Load().(*images)
	if ims == nil {
		slot.CompareAndSwap(nil, new(images))
		ims = slot.Load().(*images)
	}
	at := &ims[pr]
	old := at.Load()
	if old != nil && old.entry == p.Main {
		return old
	}
	sp := obs.StartSpan("main", "pipeline", "decode")
	d := decodeProgram(p, vt, pr)
	sp.EndArgs(obs.KV{K: "ok", V: b2i(d.err == nil)})
	at.CompareAndSwap(old, d)
	return d
}

// decodeProgram translates a runnable program into the dense executable
// form; a program that is not runnable decodes to its error. pr maps each
// store's verdict in vt to the verdict used at runtime — once per site
// here, keeping flavor logic off the dispatch path.
func decodeProgram(p *bytecode.Program, vt *bytecode.Verdicts, pr projection) *dprogram {
	if err := runnable(p); err != nil {
		return &dprogram{entry: p.Main, err: err}
	}
	syms := p.Symbols()
	d := &dprogram{methods: make([]*dmethod, len(syms.Methods)), entry: p.Main}
	for i, m := range syms.Methods {
		d.methods[i] = &dmethod{
			src:      m,
			body:     p.Body(i),
			name:     m.QualifiedName(),
			pool:     m.Pool,
			num:      int32(i),
			static:   m.Static,
			numArgs:  m.NumArgs(),
			numSlots: m.NumSlots(),
			stackCap: m.MaxStack + 4,
		}
	}
	for i, dm := range d.methods {
		d.decodeMethod(i, syms, vt, dm, pr)
	}
	d.main = d.methods[syms.MethodNum(p.Main)]
	return d
}

// operandless is the decoded op of each opcode that has no operand, by
// opcode (dNop for the others).
var operandless = [...]dop{
	bytecode.OpNop: dNop, bytecode.OpConstNull: dConstNull, bytecode.OpDup: dDup, bytecode.OpPop: dPop,
	bytecode.OpAdd: dAdd, bytecode.OpSub: dSub, bytecode.OpMul: dMul, bytecode.OpDiv: dDiv,
	bytecode.OpRem: dRem, bytecode.OpNeg: dNeg, bytecode.OpAnd: dAnd, bytecode.OpOr: dOr,
	bytecode.OpNot: dNot, bytecode.OpCmpEQ: dCmpEQ, bytecode.OpCmpNE: dCmpNE, bytecode.OpCmpLT: dCmpLT,
	bytecode.OpCmpLE: dCmpLE, bytecode.OpCmpGT: dCmpGT, bytecode.OpCmpGE: dCmpGE,
	bytecode.OpRefEQ: dRefEQ, bytecode.OpRefNE: dRefNE, bytecode.OpArrayLength: dArrayLength,
	bytecode.OpAALoad: dAALoad, bytecode.OpIALoad: dIALoad, bytecode.OpAAStore: dAAStore,
	bytecode.OpIAStore: dIAStore, bytecode.OpReturn: dReturn, bytecode.OpReturnValue: dReturnValue,
	bytecode.OpPrint: dPrint, bytecode.OpTrap: dTrap,
}

// decodeMethod fills in dm.code and the operand tables from the method's
// Body, which has checked every slot, branch target and operand, and
// appends the method's sites, with their verdicts in vt, to d.sites.
func (d *dprogram) decodeMethod(i int, syms *bytecode.Symbols, vt *bytecode.Verdicts, dm *dmethod, pr projection) {
	m, body := dm.src, dm.body
	dm.code = make([]dinstr, len(m.Code))
	for pc := range m.Code {
		in := &m.Code[pc]
		di := &dm.code[pc]
		di.fuse = -1
		di.line = in.Line
		siteKind, isSite := satb.SiteOf(syms, in.Op, body.FieldAt[pc])
		switch in.Op {
		case bytecode.OpConst, bytecode.OpConstBool:
			di.op = dConst
			di.imm = in.A
		case bytecode.OpLoad, bytecode.OpStore:
			di.op = dLoad
			if in.Op == bytecode.OpStore {
				di.op = dStore
			}
			di.a = int32(in.A)
		case bytecode.OpGoto:
			di.op, di.a = dGoto, int32(in.A)
		case bytecode.OpIfTrue:
			di.op, di.a = dIfTrue, int32(in.A)
		case bytecode.OpIfFalse:
			di.op, di.a = dIfFalse, int32(in.A)
		case bytecode.OpIfNull:
			di.op, di.a = dIfNull, int32(in.A)
		case bytecode.OpIfNonNull:
			di.op, di.a = dIfNonNull, int32(in.A)
		case bytecode.OpGetField, bytecode.OpPutField:
			f := &syms.Fields[body.FieldAt[pc]]
			di.a = int32(len(dm.fields))
			dm.fields = append(dm.fields, fieldRec{ref: f.Ref, idx: int32(f.Slot)})
			switch {
			case in.Op == bytecode.OpGetField && f.IsRef:
				di.op = dGetFieldRef
			case in.Op == bytecode.OpGetField:
				di.op = dGetFieldInt
			case f.IsRef:
				di.op = dPutFieldRef
			default:
				di.op = dPutFieldInt
			}
		case bytecode.OpGetStatic, bytecode.OpPutStatic:
			f := &syms.Fields[body.FieldAt[pc]]
			di.a = int32(len(dm.statics))
			dm.statics = append(dm.statics, int32(f.Slot))
			switch {
			case in.Op == bytecode.OpGetStatic && f.IsRef:
				di.op = dGetStaticRef
			case in.Op == bytecode.OpGetStatic:
				di.op = dGetStaticInt
			case f.IsRef:
				di.op = dPutStaticRef
			default:
				di.op = dPutStaticInt
			}
		case bytecode.OpNewInstance:
			di.op = dNewInstance
			di.a = int32(len(dm.allocs))
			dm.allocs = append(dm.allocs, syms.Class(m.Operand(pc).Type.Class))
		case bytecode.OpNewArray:
			di.op = dNewArrayInt
			if m.Operand(pc).Type.IsRef() {
				di.op = dNewArrayRef
			}
		case bytecode.OpInvoke, bytecode.OpSpawn:
			di.op = dInvoke
			if in.Op == bytecode.OpSpawn {
				di.op = dSpawn
			}
			di.a = int32(len(dm.callees))
			dm.callees = append(dm.callees, calleeRec{m: d.methods[body.CalleeAt[pc]], ref: in.Ref})
		default:
			if int(in.Op) < len(operandless) {
				di.op = operandless[in.Op]
			}
		}
		if isSite {
			di.b = int32(len(d.sites))
			d.sites = append(d.sites, siteRec{
				key:   satb.SiteKey{Method: dm.name, PC: pc},
				kind:  siteKind,
				elide: pr.apply(vt.At(i, pc)),
			})
		}
	}
	fuseMethod(dm)
}

// isArith reports the fusible arithmetic ops (div/rem are excluded: their
// zero checks would complicate the fused error paths for no gain).
func isArith(op dop) bool { return op == dAdd || op == dSub || op == dMul }

// isCmp reports the integer comparisons.
func isCmp(op dop) bool { return op >= dCmpEQ && op <= dCmpGE }

// fuseMethod detects superinstruction patterns at every pc. Patterns may
// overlap: each pc keeps its plain instruction, so fusing is purely an
// execution shortcut from that head.
func fuseMethod(dm *dmethod) {
	code := dm.code
	add := func(pc int, fi finstr) {
		dm.fused = append(dm.fused, fi)
		code[pc].fuse = int32(len(dm.fused) - 1)
	}
	for pc := 0; pc < len(code); pc++ {
		c0 := &code[pc]
		// Length-4 patterns.
		if pc+3 < len(code) {
			c1, c2, c3 := &code[pc+1], &code[pc+2], &code[pc+3]
			switch {
			case c0.op == dLoad && c1.op == dLoad && isCmp(c2.op) &&
				(c3.op == dIfTrue || c3.op == dIfFalse):
				add(pc, finstr{op: fLLCmpBr, n: 4, a: c0.a, b: c1.a,
					c: int32(c2.op), d: c3.a, e: brTrueFlag(c3.op)})
				continue
			case c0.op == dLoad && c1.op == dConst && isCmp(c2.op) &&
				(c3.op == dIfTrue || c3.op == dIfFalse):
				add(pc, finstr{op: fLCCmpBr, n: 4, a: c0.a, imm: c1.imm,
					c: int32(c2.op), d: c3.a, e: brTrueFlag(c3.op)})
				continue
			case c0.op == dLoad && c1.op == dConst && isArith(c2.op) && c3.op == dStore:
				add(pc, finstr{op: fIncLocal, n: 4, a: c0.a, imm: c1.imm,
					c: int32(c2.op), b: c3.a})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dLoad && c3.op == dAAStore:
				add(pc, finstr{op: fLLLAAStore, n: 4, a: c0.a, b: c1.a, c: c2.a, site: c3.b})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dLoad && c3.op == dIAStore:
				add(pc, finstr{op: fLLLIAStore, n: 4, a: c0.a, b: c1.a, c: c2.a})
				continue
			}
		}
		// Length-3 patterns.
		if pc+2 < len(code) {
			c1, c2 := &code[pc+1], &code[pc+2]
			switch {
			case c0.op == dLoad && c1.op == dLoad && c2.op == dPutFieldRef:
				add(pc, finstr{op: fLLPutFieldRef, n: 3, a: c0.a, b: c1.a, c: c2.a, site: c2.b})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dPutFieldInt:
				add(pc, finstr{op: fLLPutFieldInt, n: 3, a: c0.a, b: c1.a, c: c2.a})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dAALoad:
				add(pc, finstr{op: fLLAALoad, n: 3, a: c0.a, b: c1.a})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dIALoad:
				add(pc, finstr{op: fLLIALoad, n: 3, a: c0.a, b: c1.a})
				continue
			case c0.op == dLoad && c1.op == dLoad && isArith(c2.op):
				add(pc, finstr{op: fLLArith, n: 3, a: c0.a, b: c1.a, c: int32(c2.op)})
				continue
			case c0.op == dLoad && c1.op == dConst && isArith(c2.op):
				add(pc, finstr{op: fLCArith, n: 3, a: c0.a, imm: c1.imm, c: int32(c2.op)})
				continue
			}
		}
		// Length-2 patterns.
		if pc+1 < len(code) {
			c1 := &code[pc+1]
			switch {
			case c0.op == dLoad && c1.op == dGetFieldRef:
				add(pc, finstr{op: fLGetFieldRef, n: 2, a: c0.a, b: c1.a})
			case c0.op == dLoad && c1.op == dGetFieldInt:
				add(pc, finstr{op: fLGetFieldInt, n: 2, a: c0.a, b: c1.a})
			case c0.op == dConst && c1.op == dStore:
				add(pc, finstr{op: fConstStore, n: 2, imm: c0.imm, b: c1.a})
			}
		}
	}
}

// brTrueFlag encodes whether the fused branch fires on a true condition.
func brTrueFlag(op dop) int32 {
	if op == dIfTrue {
		return 1
	}
	return 0
}
