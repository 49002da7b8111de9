package irgen

import (
	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/sema"
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
	"regpromo/internal/ir"
)

// lvKind classifies how an lvalue is accessed.
type lvKind int

const (
	// lvReg: the variable lives in a virtual register.
	lvReg lvKind = iota
	// lvTag: a named scalar memory location, accessed with explicit
	// sLoad/sStore.
	lvTag
	// lvMem: a computed address, accessed with pLoad/pStore carrying
	// a may-reference tag set.
	lvMem
)

// lvalue describes a storage location an expression designates.
type lvalue struct {
	kind lvKind
	reg  ir.Reg    // lvReg: the home register; lvMem: the address
	tag  ir.TagID  // lvTag
	tags ir.TagSet // lvMem may-set (⊤ when pointer-derived)
	typ  *types.Type
}

// varLValue builds the lvalue for a plain variable reference.
func (g *generator) varLValue(sym *ast.Symbol) lvalue {
	if r, ok := g.symRegs[sym]; ok {
		return lvalue{kind: lvReg, reg: r, typ: sym.Type}
	}
	tag := g.symTags[sym]
	if sym.Type.IsScalar() {
		return lvalue{kind: lvTag, tag: tag, typ: sym.Type}
	}
	// Aggregates are manipulated by address.
	addr := g.emitTo(ir.Instr{Op: ir.OpAddrOf, Tag: tag})
	return lvalue{kind: lvMem, reg: addr, tags: ir.NewTagSet(tag), typ: sym.Type}
}

// load produces the value stored in lv.
func (g *generator) load(lv lvalue) ir.Reg {
	switch lv.kind {
	case lvReg:
		return lv.reg
	case lvTag:
		return g.emitTo(ir.Instr{Op: ir.OpSLoad, Tag: lv.tag, Size: lv.typ.Size()})
	default:
		return g.emitTo(ir.Instr{Op: ir.OpPLoad, A: lv.reg, Tags: lv.tags, Size: lv.typ.Size()})
	}
}

// store writes v into lv.
func (g *generator) store(lv lvalue, v ir.Reg) {
	switch lv.kind {
	case lvReg:
		g.emit(ir.Instr{Op: ir.OpCopy, Dst: lv.reg, A: v})
	case lvTag:
		g.emit(ir.Instr{Op: ir.OpSStore, Tag: lv.tag, A: v, Size: lv.typ.Size()})
	default:
		g.emit(ir.Instr{Op: ir.OpPStore, A: lv.reg, B: v, Tags: lv.tags, Size: lv.typ.Size()})
	}
}

// addressOf materializes the address of lv (which must not be lvReg).
func (g *generator) addressOf(lv lvalue) (ir.Reg, ir.TagSet) {
	switch lv.kind {
	case lvTag:
		addr := g.emitTo(ir.Instr{Op: ir.OpAddrOf, Tag: lv.tag})
		return addr, ir.NewTagSet(lv.tag)
	default:
		return lv.reg, lv.tags
	}
}

// genLValue lowers an lvalue expression to a storage designator.
func (g *generator) genLValue(e ast.Expr) (lvalue, error) {
	switch n := e.(type) {
	case *ast.Ident:
		return g.varLValue(n.Sym), nil

	case *ast.Unary: // *p
		if n.Op != token.Star {
			return lvalue{}, errorf(n.Pos(), "not an lvalue: unary %s", n.Op)
		}
		addr, err := g.genExpr(n.X)
		if err != nil {
			return lvalue{}, err
		}
		return lvalue{kind: lvMem, reg: addr, tags: ir.TopSet(), typ: n.Type()}, nil

	case *ast.Index:
		return g.genIndexLValue(n)

	case *ast.Member:
		return g.genMemberLValue(n)
	}
	return lvalue{}, errorf(e.Pos(), "not an lvalue: %T", e)
}

// genIndexLValue lowers x[i]. When x is (derived from) a named array
// the may-set stays that array's tag; when x is a pointer value the
// set is ⊤ until analysis shrinks it.
func (g *generator) genIndexLValue(n *ast.Index) (lvalue, error) {
	base, tags, err := g.genBaseAddr(n.X)
	if err != nil {
		return lvalue{}, err
	}
	idx, err := g.genExprAs(n.I, types.LongType)
	if err != nil {
		return lvalue{}, err
	}
	elem := n.Type()
	scaled := idx
	if sz := sizeOfStep(elem); sz != 1 {
		szr := g.loadImm(int64(sz))
		scaled = g.emitTo(ir.Instr{Op: ir.OpMul, A: idx, B: szr})
	}
	addr := g.emitTo(ir.Instr{Op: ir.OpAdd, A: base, B: scaled})
	return lvalue{kind: lvMem, reg: addr, tags: tags, typ: elem}, nil
}

// sizeOfStep is the pointer-arithmetic step for element type t (an
// array element steps by the whole sub-array size).
func sizeOfStep(t *types.Type) int { return t.Size() }

// genBaseAddr produces (address, may-set) for the base of an index or
// member expression. Named arrays keep their singleton tag set;
// pointer values get ⊤.
func (g *generator) genBaseAddr(e ast.Expr) (ir.Reg, ir.TagSet, error) {
	t := e.Type()
	if t.Kind == types.Array {
		lv, err := g.genLValue(e)
		if err != nil {
			return ir.RegInvalid, ir.TagSet{}, err
		}
		addr, tags := g.addressOf(lv)
		return addr, tags, nil
	}
	// Pointer-typed base: evaluate the pointer value.
	addr, err := g.genExpr(e)
	if err != nil {
		return ir.RegInvalid, ir.TagSet{}, err
	}
	return addr, ir.TopSet(), nil
}

func (g *generator) genMemberLValue(n *ast.Member) (lvalue, error) {
	var base ir.Reg
	var tags ir.TagSet
	if n.Arrow {
		p, err := g.genExpr(n.X)
		if err != nil {
			return lvalue{}, err
		}
		base, tags = p, ir.TopSet()
	} else {
		lv, err := g.genLValue(n.X)
		if err != nil {
			return lvalue{}, err
		}
		base, tags = g.addressOf(lv)
	}
	addr := base
	if n.Field.Offset != 0 {
		off := g.loadImm(int64(n.Field.Offset))
		addr = g.emitTo(ir.Instr{Op: ir.OpAdd, A: base, B: off})
	}
	return lvalue{kind: lvMem, reg: addr, tags: tags, typ: n.Field.Type}, nil
}

// convert coerces a value from type `from` to type `to`.
func (g *generator) convert(v ir.Reg, from, to *types.Type) ir.Reg {
	if from.Kind == types.Double && to.Kind != types.Double && to.IsScalar() {
		return g.emitTo(ir.Instr{Op: ir.OpF2I, A: v})
	}
	if from.Kind != types.Double && to.Kind == types.Double {
		return g.emitTo(ir.Instr{Op: ir.OpI2F, A: v})
	}
	// Integer and pointer widths are all held canonically in 64-bit
	// registers; truncation happens at store time.
	return v
}

// genExprAs evaluates e and converts the result to type to.
func (g *generator) genExprAs(e ast.Expr, to *types.Type) (ir.Reg, error) {
	v, err := g.genExpr(e)
	if err != nil {
		return ir.RegInvalid, err
	}
	return g.convert(v, exprValueType(e), to), nil
}

// exprValueType is e's type after array/function decay.
func exprValueType(e ast.Expr) *types.Type {
	t := e.Type()
	switch t.Kind {
	case types.Array:
		return types.PointerTo(t.Elem)
	case types.Func:
		return types.PointerTo(t)
	}
	return t
}

// genExpr evaluates e for its value.
func (g *generator) genExpr(e ast.Expr) (ir.Reg, error) {
	switch n := e.(type) {
	case *ast.IntLit:
		return g.loadImm(n.Value), nil

	case *ast.FloatLit:
		return g.emitTo(ir.Instr{Op: ir.OpLoadF, FImm: n.Value}), nil

	case *ast.StringLit:
		return g.emitTo(ir.Instr{Op: ir.OpAddrOf, Tag: g.strTags[n.Index]}), nil

	case *ast.Ident:
		switch n.Sym.Kind {
		case ast.SymEnumConst:
			return g.loadImm(n.Sym.EnumValue), nil
		case ast.SymFunc:
			return g.emitTo(ir.Instr{Op: ir.OpAddrOf, Callee: n.Sym.Name}), nil
		}
		if n.Type().Kind == types.Array || n.Type().Kind == types.Struct {
			lv := g.varLValue(n.Sym)
			addr, _ := g.addressOf(lv)
			return addr, nil
		}
		return g.load(g.varLValue(n.Sym)), nil

	case *ast.Unary:
		return g.genUnary(n)

	case *ast.Postfix:
		lv, err := g.genLValue(n.X)
		if err != nil {
			return ir.RegInvalid, err
		}
		old := g.load(lv)
		step, isF := g.stepFor(lv.typ)
		var op ir.Op
		if isF {
			op = ir.OpFAdd
			if n.Op == token.Dec {
				op = ir.OpFSub
			}
		} else {
			op = ir.OpAdd
			if n.Op == token.Dec {
				op = ir.OpSub
			}
		}
		next := g.emitTo(ir.Instr{Op: op, A: old, B: step})
		g.store(lv, next)
		return old, nil

	case *ast.Binary:
		return g.genBinary(n)

	case *ast.Assign:
		return g.genAssign(n)

	case *ast.Cond:
		return g.genCondExpr(n)

	case *ast.Index:
		lv, err := g.genIndexLValue(n)
		if err != nil {
			return ir.RegInvalid, err
		}
		if lv.typ.Kind == types.Array || lv.typ.Kind == types.Struct {
			return lv.reg, nil // decays to its address
		}
		return g.load(lv), nil

	case *ast.Member:
		lv, err := g.genMemberLValue(n)
		if err != nil {
			return ir.RegInvalid, err
		}
		if lv.typ.Kind == types.Array || lv.typ.Kind == types.Struct {
			return lv.reg, nil
		}
		return g.load(lv), nil

	case *ast.Call:
		return g.genCall(n)

	case *ast.SizeofExpr:
		return g.loadImm(int64(n.Size)), nil

	case *ast.Cast:
		if n.To.Kind == types.Void {
			_, err := g.genExpr(n.X)
			return ir.RegInvalid, err
		}
		return g.genExprAs(n.X, n.To)
	}
	return ir.RegInvalid, errorf(e.Pos(), "unhandled expression %T", e)
}

// stepFor returns the register holding the increment step for ++/--
// on type t (elem size for pointers, 1 or 1.0 otherwise) and whether
// the type is floating.
func (g *generator) stepFor(t *types.Type) (ir.Reg, bool) {
	if t.Kind == types.Double {
		return g.emitTo(ir.Instr{Op: ir.OpLoadF, FImm: 1}), true
	}
	if t.Kind == types.Pointer {
		return g.loadImm(int64(t.Elem.Size())), false
	}
	return g.loadImm(1), false
}

func (g *generator) genUnary(n *ast.Unary) (ir.Reg, error) {
	switch n.Op {
	case token.Minus:
		if n.Type().Kind == types.Double {
			v, err := g.genExprAs(n.X, types.DoubleType)
			if err != nil {
				return ir.RegInvalid, err
			}
			return g.emitTo(ir.Instr{Op: ir.OpFNeg, A: v}), nil
		}
		v, err := g.genExprAs(n.X, types.LongType)
		if err != nil {
			return ir.RegInvalid, err
		}
		return g.emitTo(ir.Instr{Op: ir.OpNeg, A: v}), nil

	case token.Tilde:
		v, err := g.genExprAs(n.X, types.LongType)
		if err != nil {
			return ir.RegInvalid, err
		}
		return g.emitTo(ir.Instr{Op: ir.OpNot, A: v}), nil

	case token.Not:
		// !x is x == 0 in the operand's domain.
		xt := exprValueType(n.X)
		if xt.Kind == types.Double {
			v, err := g.genExpr(n.X)
			if err != nil {
				return ir.RegInvalid, err
			}
			z := g.emitTo(ir.Instr{Op: ir.OpLoadF, FImm: 0})
			return g.emitTo(ir.Instr{Op: ir.OpFCmpEQ, A: v, B: z}), nil
		}
		v, err := g.genExpr(n.X)
		if err != nil {
			return ir.RegInvalid, err
		}
		z := g.loadImm(0)
		return g.emitTo(ir.Instr{Op: ir.OpCmpEQ, A: v, B: z}), nil

	case token.Star:
		if n.Type().Kind == types.Func {
			// *fp is fp.
			return g.genExpr(n.X)
		}
		lv, err := g.genLValue(n)
		if err != nil {
			return ir.RegInvalid, err
		}
		if lv.typ.Kind == types.Array || lv.typ.Kind == types.Struct {
			return lv.reg, nil
		}
		return g.load(lv), nil

	case token.And:
		if id, ok := n.X.(*ast.Ident); ok && id.Sym.Kind == ast.SymFunc {
			return g.emitTo(ir.Instr{Op: ir.OpAddrOf, Callee: id.Sym.Name}), nil
		}
		lv, err := g.genLValue(n.X)
		if err != nil {
			return ir.RegInvalid, err
		}
		addr, _ := g.addressOf(lv)
		return addr, nil

	case token.Inc, token.Dec:
		lv, err := g.genLValue(n.X)
		if err != nil {
			return ir.RegInvalid, err
		}
		old := g.load(lv)
		step, isF := g.stepFor(lv.typ)
		var op ir.Op
		if isF {
			op = ir.OpFAdd
			if n.Op == token.Dec {
				op = ir.OpFSub
			}
		} else {
			op = ir.OpAdd
			if n.Op == token.Dec {
				op = ir.OpSub
			}
		}
		next := g.emitTo(ir.Instr{Op: op, A: old, B: step})
		g.store(lv, next)
		return next, nil
	}
	return ir.RegInvalid, errorf(n.Pos(), "unhandled unary %s", n.Op)
}

var intBinOps = map[token.Kind]ir.Op{
	token.Plus:    ir.OpAdd,
	token.Minus:   ir.OpSub,
	token.Star:    ir.OpMul,
	token.Slash:   ir.OpDiv,
	token.Percent: ir.OpRem,
	token.And:     ir.OpAnd,
	token.Or:      ir.OpOr,
	token.Xor:     ir.OpXor,
	token.Shl:     ir.OpShl,
	token.Shr:     ir.OpShr,
	token.Eq:      ir.OpCmpEQ,
	token.NotEq:   ir.OpCmpNE,
	token.Lt:      ir.OpCmpLT,
	token.Le:      ir.OpCmpLE,
	token.Gt:      ir.OpCmpGT,
	token.Ge:      ir.OpCmpGE,
}

var floatBinOps = map[token.Kind]ir.Op{
	token.Plus:  ir.OpFAdd,
	token.Minus: ir.OpFSub,
	token.Star:  ir.OpFMul,
	token.Slash: ir.OpFDiv,
	token.Eq:    ir.OpFCmpEQ,
	token.NotEq: ir.OpFCmpNE,
	token.Lt:    ir.OpFCmpLT,
	token.Le:    ir.OpFCmpLE,
	token.Gt:    ir.OpFCmpGT,
	token.Ge:    ir.OpFCmpGE,
}

func (g *generator) genBinary(n *ast.Binary) (ir.Reg, error) {
	switch n.Op {
	case token.AndAnd, token.OrOr:
		return g.genShortCircuit(n)
	}

	xt, yt := exprValueType(n.X), exprValueType(n.Y)

	// Pointer arithmetic.
	if n.Op == token.Plus || n.Op == token.Minus {
		if xt.Kind == types.Pointer && yt.IsInteger() {
			return g.genPtrOffset(n.X, n.Y, n.Op == token.Minus)
		}
		if n.Op == token.Plus && xt.IsInteger() && yt.Kind == types.Pointer {
			return g.genPtrOffset(n.Y, n.X, false)
		}
		if n.Op == token.Minus && xt.Kind == types.Pointer && yt.Kind == types.Pointer {
			p, err := g.genExpr(n.X)
			if err != nil {
				return ir.RegInvalid, err
			}
			q, err := g.genExpr(n.Y)
			if err != nil {
				return ir.RegInvalid, err
			}
			diff := g.emitTo(ir.Instr{Op: ir.OpSub, A: p, B: q})
			if sz := xt.Elem.Size(); sz > 1 {
				szr := g.loadImm(int64(sz))
				diff = g.emitTo(ir.Instr{Op: ir.OpDiv, A: diff, B: szr})
			}
			return diff, nil
		}
	}

	// Pointer comparisons compare raw addresses.
	common := types.LongType
	switch {
	case xt.Kind == types.Double || yt.Kind == types.Double:
		common = types.DoubleType
	case xt.Kind == types.Pointer || yt.Kind == types.Pointer:
		common = types.LongType
	}

	x, err := g.genExprAs(n.X, common)
	if err != nil {
		return ir.RegInvalid, err
	}
	y, err := g.genExprAs(n.Y, common)
	if err != nil {
		return ir.RegInvalid, err
	}
	if common.Kind == types.Double {
		op, ok := floatBinOps[n.Op]
		if !ok {
			return ir.RegInvalid, errorf(n.Pos(), "invalid float op %s", n.Op)
		}
		return g.emitTo(ir.Instr{Op: op, A: x, B: y}), nil
	}
	op, ok := intBinOps[n.Op]
	if !ok {
		return ir.RegInvalid, errorf(n.Pos(), "invalid op %s", n.Op)
	}
	return g.emitTo(ir.Instr{Op: op, A: x, B: y}), nil
}

// genPtrOffset emits p ± i*sizeof(*p).
func (g *generator) genPtrOffset(pe, ie ast.Expr, sub bool) (ir.Reg, error) {
	p, err := g.genExpr(pe)
	if err != nil {
		return ir.RegInvalid, err
	}
	i, err := g.genExprAs(ie, types.LongType)
	if err != nil {
		return ir.RegInvalid, err
	}
	elem := exprValueType(pe).Elem
	if sz := elem.Size(); sz != 1 {
		szr := g.loadImm(int64(sz))
		i = g.emitTo(ir.Instr{Op: ir.OpMul, A: i, B: szr})
	}
	op := ir.OpAdd
	if sub {
		op = ir.OpSub
	}
	return g.emitTo(ir.Instr{Op: op, A: p, B: i}), nil
}

// genShortCircuit lowers && and || with control flow, producing 0/1.
func (g *generator) genShortCircuit(n *ast.Binary) (ir.Reg, error) {
	result := g.fn.NewReg()
	evalY := g.fn.NewBlock("")
	short := g.fn.NewBlock("")
	join := g.fn.NewBlock("")

	if n.Op == token.AndAnd {
		if err := g.genCond(n.X, evalY, short); err != nil {
			return ir.RegInvalid, err
		}
	} else {
		if err := g.genCond(n.X, short, evalY); err != nil {
			return ir.RegInvalid, err
		}
	}

	// Short-circuit arm: result is 0 for &&, 1 for ||.
	g.enter(short)
	sv := int64(0)
	if n.Op == token.OrOr {
		sv = 1
	}
	c := g.loadImm(sv)
	g.emit(ir.Instr{Op: ir.OpCopy, Dst: result, A: c})
	g.branchTo(join)

	// Full-evaluation arm: result is !!y.
	g.enter(evalY)
	y, err := g.genTruth(n.Y)
	if err != nil {
		return ir.RegInvalid, err
	}
	g.emit(ir.Instr{Op: ir.OpCopy, Dst: result, A: y})
	g.branchTo(join)

	g.enter(join)
	return result, nil
}

// genTruth evaluates e to 0 or 1.
func (g *generator) genTruth(e ast.Expr) (ir.Reg, error) {
	t := exprValueType(e)
	v, err := g.genExpr(e)
	if err != nil {
		return ir.RegInvalid, err
	}
	if t.Kind == types.Double {
		z := g.emitTo(ir.Instr{Op: ir.OpLoadF, FImm: 0})
		return g.emitTo(ir.Instr{Op: ir.OpFCmpNE, A: v, B: z}), nil
	}
	z := g.loadImm(0)
	return g.emitTo(ir.Instr{Op: ir.OpCmpNE, A: v, B: z}), nil
}

func (g *generator) genAssign(n *ast.Assign) (ir.Reg, error) {
	lv, err := g.genLValue(n.X)
	if err != nil {
		return ir.RegInvalid, err
	}
	if n.Op == token.Assign {
		v, err := g.genExprAs(n.Y, valueType(lv.typ))
		if err != nil {
			return ir.RegInvalid, err
		}
		g.store(lv, v)
		return v, nil
	}

	// Compound assignment: load, operate, store.
	old := g.load(lv)
	dt := lv.typ

	// Pointer += / -= scale the operand.
	if dt.Kind == types.Pointer && (n.Op == token.PlusAssign || n.Op == token.MinusAssign) {
		i, err := g.genExprAs(n.Y, types.LongType)
		if err != nil {
			return ir.RegInvalid, err
		}
		if sz := dt.Elem.Size(); sz != 1 {
			szr := g.loadImm(int64(sz))
			i = g.emitTo(ir.Instr{Op: ir.OpMul, A: i, B: szr})
		}
		op := ir.OpAdd
		if n.Op == token.MinusAssign {
			op = ir.OpSub
		}
		res := g.emitTo(ir.Instr{Op: op, A: old, B: i})
		g.store(lv, res)
		return res, nil
	}

	binTok := compoundBase[n.Op]
	common := types.LongType
	if dt.Kind == types.Double || exprValueType(n.Y).Kind == types.Double {
		common = types.DoubleType
	}
	x := g.convert(old, dt, common)
	y, err := g.genExprAs(n.Y, common)
	if err != nil {
		return ir.RegInvalid, err
	}
	var res ir.Reg
	if common.Kind == types.Double {
		op, ok := floatBinOps[binTok]
		if !ok {
			return ir.RegInvalid, errorf(n.Pos(), "invalid float compound op")
		}
		res = g.emitTo(ir.Instr{Op: op, A: x, B: y})
	} else {
		res = g.emitTo(ir.Instr{Op: intBinOps[binTok], A: x, B: y})
	}
	res = g.convert(res, common, dt)
	g.store(lv, res)
	return res, nil
}

var compoundBase = map[token.Kind]token.Kind{
	token.PlusAssign:    token.Plus,
	token.MinusAssign:   token.Minus,
	token.StarAssign:    token.Star,
	token.SlashAssign:   token.Slash,
	token.PercentAssign: token.Percent,
	token.ShlAssign:     token.Shl,
	token.ShrAssign:     token.Shr,
	token.AndAssign:     token.And,
	token.OrAssign:      token.Or,
	token.XorAssign:     token.Xor,
}

func (g *generator) genCondExpr(n *ast.Cond) (ir.Reg, error) {
	result := g.fn.NewReg()
	thenB := g.fn.NewBlock("")
	elseB := g.fn.NewBlock("")
	join := g.fn.NewBlock("")
	if err := g.genCond(n.C, thenB, elseB); err != nil {
		return ir.RegInvalid, err
	}
	g.enter(thenB)
	x, err := g.genExprAs(n.X, n.Type())
	if err != nil {
		return ir.RegInvalid, err
	}
	g.emit(ir.Instr{Op: ir.OpCopy, Dst: result, A: x})
	g.branchTo(join)
	g.enter(elseB)
	y, err := g.genExprAs(n.Y, n.Type())
	if err != nil {
		return ir.RegInvalid, err
	}
	g.emit(ir.Instr{Op: ir.OpCopy, Dst: result, A: y})
	g.branchTo(join)
	g.enter(join)
	return result, nil
}

func (g *generator) genCall(n *ast.Call) (ir.Reg, error) {
	// Resolve direct callee.
	callee := ""
	var fnReg ir.Reg = ir.RegInvalid
	if id, ok := n.Fun.(*ast.Ident); ok && id.Sym.Kind == ast.SymFunc {
		callee = id.Sym.Name
	} else {
		v, err := g.genExpr(n.Fun)
		if err != nil {
			return ir.RegInvalid, err
		}
		fnReg = v
	}

	var sig *types.Type
	if callee != "" {
		sig = g.prog.FuncSyms[callee].Type
	} else {
		ft := exprValueType(n.Fun)
		sig = ft.Elem
	}

	args := make([]ir.Reg, len(n.Args))
	for i, a := range n.Args {
		want := exprValueType(a)
		if i < len(sig.Params) {
			want = sig.Params[i]
		}
		v, err := g.genExprAs(a, want)
		if err != nil {
			return ir.RegInvalid, err
		}
		args[i] = v
	}

	in := ir.Instr{
		Op:     ir.OpJsr,
		Callee: callee,
		A:      fnReg,
		Args:   args,
		Mods:   ir.TopSet(),
		Refs:   ir.TopSet(),
		Site:   ir.TagInvalid,
	}
	if callee == "malloc" {
		// Each allocation call site names its storage (§4).
		tag := g.mod.Tags.NewTag(
			g.fd.Name+".heap#"+itoa(g.heapN), ir.TagHeap, g.fd.Name, 0, 0)
		tag.AddrTaken = true
		g.heapN++
		in.Site = tag.ID
	}
	if sig.Elem.Kind != types.Void {
		in.HasValue = true
		in.Dst = g.fn.NewReg()
	} else {
		in.Dst = ir.RegInvalid
	}
	g.emit(in)
	return in.Dst, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// genCond lowers a boolean context: branch to t when e is true, else
// to f. Comparisons and logical operators fuse into the branch.
func (g *generator) genCond(e ast.Expr, t, f *ir.Block) error {
	switch n := e.(type) {
	case *ast.Binary:
		switch n.Op {
		case token.AndAnd:
			mid := g.fn.NewBlock("")
			if err := g.genCond(n.X, mid, f); err != nil {
				return err
			}
			g.enter(mid)
			return g.genCond(n.Y, t, f)
		case token.OrOr:
			mid := g.fn.NewBlock("")
			if err := g.genCond(n.X, t, mid); err != nil {
				return err
			}
			g.enter(mid)
			return g.genCond(n.Y, t, f)
		case token.Eq, token.NotEq, token.Lt, token.Le, token.Gt, token.Ge:
			v, err := g.genBinary(n)
			if err != nil {
				return err
			}
			g.emit(ir.Instr{Op: ir.OpCBr, A: v})
			ir.AddEdge(g.cur, t)
			ir.AddEdge(g.cur, f)
			g.enter(nil)
			return nil
		}
	case *ast.Unary:
		if n.Op == token.Not {
			return g.genCond(n.X, f, t)
		}
	}
	v, err := g.genTruth(e)
	if err != nil {
		return err
	}
	g.emit(ir.Instr{Op: ir.OpCBr, A: v})
	ir.AddEdge(g.cur, t)
	ir.AddEdge(g.cur, f)
	g.enter(nil)
	return nil
}

// Silence an unused-import error when sema is only needed for types
// in signatures.
var _ = sema.Builtins
