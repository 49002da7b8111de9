// Package irgen lowers the checked AST to the tagged IL.
//
// The lowering realizes the conservative code shape the paper starts
// from (§2): scalars the front end can prove unaliased (locals and
// parameters whose address is never taken) live directly in virtual
// registers; everything else — globals, address-taken locals, arrays,
// structs — lives in memory, accessed by explicit scalar operations
// (sLoad/sStore) when the location is named, or by pointer operations
// (pLoad/pStore) with a ⊤ tag set when it is not. Interprocedural
// analysis later shrinks those tag sets; register promotion then moves
// the survivors into registers.
package irgen

import (
	"encoding/binary"
	"fmt"
	"math"

	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/sema"
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
	"regpromo/internal/ir"
)

// Generate lowers a checked program to an IL module.
func Generate(prog *sema.Program) (*ir.Module, error) {
	g := &generator{
		prog:    prog,
		mod:     ir.NewModule(),
		symTags: make(map[*ast.Symbol]ir.TagID),
		symRegs: make(map[*ast.Symbol]ir.Reg),
		strTags: make(map[int]ir.TagID),
	}
	g.mod.AddressedFuncs = append(g.mod.AddressedFuncs, prog.AddressedFuncs...)

	// String pool tags.
	for i, s := range prog.Strings {
		tag := g.mod.Tags.NewTag(fmt.Sprintf(".str%d", i), ir.TagGlobal, "", len(s)+1, 1)
		tag.AddrTaken = true // strings are only ever used by address
		g.strTags[i] = tag.ID
		data := append([]byte(s), 0)
		g.mod.Inits = append(g.mod.Inits, ir.GlobalInit{Tag: tag.ID, Data: data})
	}

	// Global variable tags and initializers.
	for _, vd := range prog.Globals {
		tag := g.mod.Tags.NewTag(vd.Name, ir.TagGlobal, "", vd.Type.Size(), elemSize(vd.Type))
		// Arrays and structs are accessed through computed addresses
		// by construction, so their storage is always reachable from
		// pointers regardless of whether "&" appears in the source.
		tag.AddrTaken = vd.Sym.AddrTaken ||
			vd.Type.Kind == types.Array || vd.Type.Kind == types.Struct
		tag.Strong = vd.Type.IsScalar()
		g.symTags[vd.Sym] = tag.ID
		init, err := g.globalInit(vd, tag.ID)
		if err != nil {
			return nil, err
		}
		if init != nil {
			g.mod.Inits = append(g.mod.Inits, *init)
		}
	}

	for _, fd := range prog.Funcs {
		if err := g.genFunc(fd); err != nil {
			return nil, err
		}
	}
	if err := ir.VerifyModule(g.mod); err != nil {
		return nil, fmt.Errorf("irgen produced invalid IL: %w", err)
	}
	return g.mod, nil
}

// elemSize is the scalar access width for a type: its own size for
// scalars, the deepest element size for arrays, 0 for structs (whose
// fields are accessed individually).
func elemSize(t *types.Type) int {
	switch t.Kind {
	case types.Array:
		return elemSize(t.Elem)
	case types.Struct:
		return 0
	default:
		return t.Size()
	}
}

type generator struct {
	prog    *sema.Program
	mod     *ir.Module
	symTags map[*ast.Symbol]ir.TagID
	symRegs map[*ast.Symbol]ir.Reg
	strTags map[int]ir.TagID

	// per-function state
	fn    *ir.Func
	fd    *ast.FuncDecl
	cur   *ir.Block   // the open block, or nil
	buf   []ir.Instr  // storage for the open block's instructions
	brk   []*ir.Block // break targets, innermost last
	cont  []*ir.Block // continue targets
	heapN int         // malloc site counter within the function
}

// errorf reports a lowering error (rare: sema rejects most problems).
func errorf(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

// ---------- global initializers ----------

// constValue is a folded compile-time constant.
type constValue struct {
	isFloat bool
	i       int64
	f       float64
	// tag != TagInvalid makes this an address constant tag+addend.
	tag    ir.TagID
	addend int64
}

func (g *generator) globalInit(vd *ast.VarDecl, tag ir.TagID) (*ir.GlobalInit, error) {
	if vd.Init == nil && len(vd.InitList) == 0 {
		return nil, nil // zero-initialized
	}
	init := &ir.GlobalInit{Tag: tag, Data: make([]byte, vd.Type.Size())}
	if vd.Init != nil {
		if err := g.encodeConst(init, 0, vd.Type, vd.Init); err != nil {
			return nil, err
		}
		return init, nil
	}
	if err := g.encodeList(init, 0, vd.Type, vd.InitList, vd.Pos()); err != nil {
		return nil, err
	}
	return init, nil
}

func (g *generator) encodeList(init *ir.GlobalInit, off int, t *types.Type, elems []ast.Expr, pos token.Pos) error {
	switch t.Kind {
	case types.Array:
		es := t.Elem.Size()
		if len(elems) > t.ArrayLen {
			return errorf(pos, "too many initializers for %s", t)
		}
		for i, e := range elems {
			if list, ok := e.(*ast.ListExpr); ok {
				if err := g.encodeList(init, off+i*es, t.Elem, list.Elems, pos); err != nil {
					return err
				}
				continue
			}
			if err := g.encodeConst(init, off+i*es, t.Elem, e); err != nil {
				return err
			}
		}
		return nil
	case types.Struct:
		if len(elems) > len(t.Fields) {
			return errorf(pos, "too many initializers for %s", t)
		}
		for i, e := range elems {
			f := t.Fields[i]
			if list, ok := e.(*ast.ListExpr); ok {
				if err := g.encodeList(init, off+f.Offset, f.Type, list.Elems, pos); err != nil {
					return err
				}
				continue
			}
			if err := g.encodeConst(init, off+f.Offset, f.Type, e); err != nil {
				return err
			}
		}
		return nil
	default:
		if len(elems) != 1 {
			return errorf(pos, "scalar initializer needs exactly one element")
		}
		return g.encodeConst(init, off, t, elems[0])
	}
}

func (g *generator) encodeConst(init *ir.GlobalInit, off int, t *types.Type, e ast.Expr) error {
	// A char array initialized from a string literal copies the
	// bytes (including the NUL when it fits), as in C.
	if s, ok := e.(*ast.StringLit); ok && t.Kind == types.Array && t.Elem.Kind == types.Char {
		n := len(s.Value)
		if n > t.ArrayLen {
			return errorf(e.Pos(), "string too long for %s", t)
		}
		copy(init.Data[off:], s.Value)
		return nil
	}
	cv, err := g.constEval(e)
	if err != nil {
		return err
	}
	if cv.tag != ir.TagInvalid {
		if t.Kind != types.Pointer {
			return errorf(e.Pos(), "address constant initializing non-pointer %s", t)
		}
		init.Relocs = append(init.Relocs, ir.Reloc{Offset: off, Target: cv.tag, Addend: cv.addend})
		return nil
	}
	switch t.Kind {
	case types.Double:
		v := cv.f
		if !cv.isFloat {
			v = float64(cv.i)
		}
		binary.LittleEndian.PutUint64(init.Data[off:], math.Float64bits(v))
	case types.Char:
		init.Data[off] = byte(cv.i)
	case types.Int:
		binary.LittleEndian.PutUint32(init.Data[off:], uint32(cv.i))
	case types.Long, types.Pointer:
		binary.LittleEndian.PutUint64(init.Data[off:], uint64(cv.i))
	default:
		return errorf(e.Pos(), "cannot statically initialize %s", t)
	}
	return nil
}

// constEval folds the constant expressions sema admits in global
// initializers.
func (g *generator) constEval(e ast.Expr) (constValue, error) {
	switch n := e.(type) {
	case *ast.IntLit:
		return constValue{i: n.Value, tag: ir.TagInvalid}, nil
	case *ast.FloatLit:
		return constValue{isFloat: true, f: n.Value, tag: ir.TagInvalid}, nil
	case *ast.StringLit:
		return constValue{tag: g.strTags[n.Index]}, nil
	case *ast.SizeofExpr:
		return constValue{i: int64(n.Size), tag: ir.TagInvalid}, nil
	case *ast.Ident:
		if n.Sym.Kind == ast.SymEnumConst {
			return constValue{i: n.Sym.EnumValue, tag: ir.TagInvalid}, nil
		}
		if n.Sym.Kind == ast.SymGlobal && n.Sym.Type.Kind == types.Array {
			return constValue{tag: g.symTags[n.Sym]}, nil
		}
		return constValue{}, errorf(n.Pos(), "non-constant identifier %s in initializer", n.Name)
	case *ast.Unary:
		if n.Op == token.And {
			if id, ok := n.X.(*ast.Ident); ok && id.Sym.Kind == ast.SymGlobal {
				return constValue{tag: g.symTags[id.Sym]}, nil
			}
			if idx, ok := n.X.(*ast.Index); ok {
				id, okID := idx.X.(*ast.Ident)
				lit, okLit := idx.I.(*ast.IntLit)
				if okID && okLit && id.Sym.Kind == ast.SymGlobal && id.Sym.Type.Kind == types.Array {
					return constValue{
						tag:    g.symTags[id.Sym],
						addend: lit.Value * int64(id.Sym.Type.Elem.Size()),
					}, nil
				}
			}
			return constValue{}, errorf(n.Pos(), "unsupported address constant")
		}
		cv, err := g.constEval(n.X)
		if err != nil {
			return constValue{}, err
		}
		if cv.tag != ir.TagInvalid {
			return constValue{}, errorf(n.Pos(), "arithmetic on address constant")
		}
		switch n.Op {
		case token.Minus:
			if cv.isFloat {
				cv.f = -cv.f
			} else {
				cv.i = -cv.i
			}
		case token.Tilde:
			cv.i = ^cv.i
		case token.Not:
			if cv.i == 0 {
				cv.i = 1
			} else {
				cv.i = 0
			}
		default:
			return constValue{}, errorf(n.Pos(), "unsupported constant unary %s", n.Op)
		}
		return cv, nil
	case *ast.Binary:
		x, err := g.constEval(n.X)
		if err != nil {
			return constValue{}, err
		}
		y, err := g.constEval(n.Y)
		if err != nil {
			return constValue{}, err
		}
		if x.tag != ir.TagInvalid || y.tag != ir.TagInvalid {
			return constValue{}, errorf(n.Pos(), "arithmetic on address constant")
		}
		if x.isFloat || y.isFloat {
			xf, yf := x.f, y.f
			if !x.isFloat {
				xf = float64(x.i)
			}
			if !y.isFloat {
				yf = float64(y.i)
			}
			var r float64
			switch n.Op {
			case token.Plus:
				r = xf + yf
			case token.Minus:
				r = xf - yf
			case token.Star:
				r = xf * yf
			case token.Slash:
				r = xf / yf
			default:
				return constValue{}, errorf(n.Pos(), "unsupported constant float op %s", n.Op)
			}
			return constValue{isFloat: true, f: r, tag: ir.TagInvalid}, nil
		}
		var r int64
		switch n.Op {
		case token.Plus:
			r = x.i + y.i
		case token.Minus:
			r = x.i - y.i
		case token.Star:
			r = x.i * y.i
		case token.Slash:
			if y.i == 0 {
				return constValue{}, errorf(n.Pos(), "division by zero in constant")
			}
			r = x.i / y.i
		case token.Percent:
			if y.i == 0 {
				return constValue{}, errorf(n.Pos(), "division by zero in constant")
			}
			r = x.i % y.i
		case token.Shl:
			r = x.i << (uint64(y.i) & 63)
		case token.Shr:
			r = x.i >> (uint64(y.i) & 63)
		case token.And:
			r = x.i & y.i
		case token.Or:
			r = x.i | y.i
		case token.Xor:
			r = x.i ^ y.i
		default:
			return constValue{}, errorf(n.Pos(), "unsupported constant op %s", n.Op)
		}
		return constValue{i: r, tag: ir.TagInvalid}, nil
	case *ast.Cast:
		cv, err := g.constEval(n.X)
		if err != nil {
			return constValue{}, err
		}
		if n.To.Kind == types.Double && !cv.isFloat {
			return constValue{isFloat: true, f: float64(cv.i), tag: cv.tag}, nil
		}
		if n.To.IsInteger() && cv.isFloat {
			return constValue{i: int64(cv.f), tag: cv.tag}, nil
		}
		return cv, nil
	}
	return constValue{}, errorf(e.Pos(), "unsupported constant expression %T", e)
}
