package irgen

import (
	"fmt"

	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/types"
	"regpromo/internal/ir"
)

func (g *generator) genFunc(fd *ast.FuncDecl) error {
	fn := &ir.Func{Name: fd.Name, HasVarRet: fd.Result.Kind != types.Void}
	g.fn = fn
	g.fd = fd
	g.heapN = 0
	g.brk = nil
	g.cont = nil

	entry := fn.NewBlock("")
	fn.Entry = entry
	g.enter(entry)

	// Decide residence for parameters and create their homes.
	for _, p := range fd.Params {
		r := fn.NewReg()
		fn.Params = append(fn.Params, r)
		if p.Sym.AddrTaken {
			tag := g.newLocalTag(p.Sym)
			g.emit(ir.Instr{Op: ir.OpSStore, Tag: tag, A: r, Size: p.Type.Size()})
		} else {
			g.symRegs[p.Sym] = r
		}
	}

	// Locals: registers for unaliased scalars, frame tags otherwise.
	// (Initializer code is emitted when the declaration statement is
	// reached, not here.)
	for _, vd := range fd.Locals {
		if vd.Type.IsScalar() && !vd.Sym.AddrTaken {
			g.symRegs[vd.Sym] = fn.NewReg()
		} else {
			g.newLocalTag(vd.Sym)
		}
	}

	if err := g.genBlock(fd.Body); err != nil {
		return err
	}

	// Fall-off return.
	if g.cur != nil {
		if fn.HasVarRet {
			z := g.loadImm(0)
			g.emit(ir.Instr{Op: ir.OpRet, A: z, HasValue: true})
		} else {
			g.emit(ir.Instr{Op: ir.OpRet, A: ir.RegInvalid})
		}
		g.enter(nil)
	}
	fn.RemoveUnreachable()
	g.mod.AddFunc(fn)
	return nil
}

// newLocalTag creates the frame tag for a memory-resident local or
// parameter.
func (g *generator) newLocalTag(sym *ast.Symbol) ir.TagID {
	name := fmt.Sprintf("%s.%s#%d", g.fd.Name, sym.Name, sym.Uniq)
	tag := g.mod.Tags.NewTag(name, ir.TagLocal, g.fd.Name, sym.Type.Size(), elemSize(sym.Type))
	tag.AddrTaken = sym.AddrTaken || sym.Type.Kind == types.Array || sym.Type.Kind == types.Struct
	// Strong is provisional: the MOD/REF pass clears it for locals
	// of recursive functions, where one tag names many activations.
	tag.Strong = sym.Type.IsScalar()
	g.symTags[sym] = tag.ID
	g.fn.Locals = append(g.fn.Locals, tag.ID)
	return tag.ID
}

// enter seals the open block, if any, and opens b (nil opens none).
// The generator fills one block at a time: the open block's
// instructions are built in g.buf, which every block reuses, and
// sealing moves them to a slice of exactly their length. So a block
// costs one allocation, and a later pass that appends to it
// reallocates it rather than writing past its end.
func (g *generator) enter(b *ir.Block) {
	if c := g.cur; c != nil {
		var instrs []ir.Instr
		if len(c.Instrs) > 0 {
			instrs = make([]ir.Instr, len(c.Instrs))
			copy(instrs, c.Instrs)
		}
		g.buf, c.Instrs = c.Instrs[:0], instrs
	}
	g.cur = b
	if b != nil {
		b.Instrs = append(g.buf, b.Instrs...)
	}
}

// emit appends an instruction to the open block and returns its
// destination register.
func (g *generator) emit(in ir.Instr) ir.Reg {
	g.cur.Instrs = append(g.cur.Instrs, in)
	return in.Dst
}

// emitTo allocates a destination register, emits, and returns it.
func (g *generator) emitTo(in ir.Instr) ir.Reg {
	in.Dst = g.fn.NewReg()
	return g.emit(in)
}

func (g *generator) loadImm(v int64) ir.Reg {
	return g.emitTo(ir.Instr{Op: ir.OpLoadI, Imm: v})
}

// branchTo seals the current block with an unconditional branch to
// target (if open).
func (g *generator) branchTo(target *ir.Block) {
	if g.cur != nil && g.cur.Terminator() == nil {
		g.emit(ir.Instr{Op: ir.OpBr})
		ir.AddEdge(g.cur, target)
	}
	g.enter(nil)
}

func (g *generator) genBlock(b *ast.Block) error {
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
		if g.cur == nil {
			// The rest of the block is unreachable (after
			// return/break/continue). C allows it; skip.
			return nil
		}
	}
	return nil
}

func (g *generator) genStmt(s ast.Stmt) error {
	switch n := s.(type) {
	case *ast.Block:
		return g.genBlock(n)
	case *ast.Empty:
		return nil
	case *ast.ExprStmt:
		_, err := g.genExpr(n.X)
		return err
	case *ast.DeclStmt:
		for _, d := range n.Decls {
			if err := g.genLocalInit(d); err != nil {
				return err
			}
		}
		return nil
	case *ast.If:
		return g.genIf(n)
	case *ast.While:
		return g.genWhile(n)
	case *ast.DoWhile:
		return g.genDoWhile(n)
	case *ast.For:
		return g.genFor(n)
	case *ast.Return:
		if n.Value != nil {
			v, err := g.genExprAs(n.Value, g.fd.Result)
			if err != nil {
				return err
			}
			g.emit(ir.Instr{Op: ir.OpRet, A: v, HasValue: true})
		} else {
			g.emit(ir.Instr{Op: ir.OpRet, A: ir.RegInvalid})
		}
		g.enter(nil)
		return nil
	case *ast.Break:
		g.branchTo(g.brk[len(g.brk)-1])
		return nil
	case *ast.Continue:
		g.branchTo(g.cont[len(g.cont)-1])
		return nil
	}
	return errorf(s.Pos(), "unhandled statement %T", s)
}

func (g *generator) genLocalInit(d *ast.VarDecl) error {
	if d.Init != nil {
		v, err := g.genExprAs(d.Init, valueType(d.Type))
		if err != nil {
			return err
		}
		lv := g.varLValue(d.Sym)
		g.store(lv, v)
		return nil
	}
	if len(d.InitList) > 0 {
		tag := g.symTags[d.Sym]
		base := g.emitTo(ir.Instr{Op: ir.OpAddrOf, Tag: tag})
		return g.genListInit(base, ir.NewTagSet(tag), d.Type, d.InitList, 0)
	}
	return nil
}

// genListInit stores a brace initializer element-by-element; elements
// not covered by the list are zeroed, matching C semantics.
func (g *generator) genListInit(base ir.Reg, tags ir.TagSet, t *types.Type, elems []ast.Expr, off int64) error {
	switch t.Kind {
	case types.Array:
		es := int64(t.Elem.Size())
		for i := 0; i < t.ArrayLen; i++ {
			var e ast.Expr
			if i < len(elems) {
				e = elems[i]
			}
			if err := g.genInitElem(base, tags, t.Elem, e, off+int64(i)*es); err != nil {
				return err
			}
		}
		return nil
	case types.Struct:
		for i, f := range t.Fields {
			var e ast.Expr
			if i < len(elems) {
				e = elems[i]
			}
			if err := g.genInitElem(base, tags, f.Type, e, off+int64(f.Offset)); err != nil {
				return err
			}
		}
		return nil
	default:
		var e ast.Expr
		if len(elems) > 0 {
			e = elems[0]
		}
		return g.genInitElem(base, tags, t, e, off)
	}
}

func (g *generator) genInitElem(base ir.Reg, tags ir.TagSet, t *types.Type, e ast.Expr, off int64) error {
	if list, ok := e.(*ast.ListExpr); ok {
		return g.genListInit(base, tags, t, list.Elems, off)
	}
	if t.Kind == types.Array || t.Kind == types.Struct {
		// Aggregate element with a non-list (or absent) initializer:
		// zero-fill recursively.
		if e != nil {
			return errorf(e.Pos(), "aggregate element needs a brace initializer")
		}
		return g.genListInit(base, tags, t, nil, off)
	}
	var v ir.Reg
	if e == nil {
		if t.Kind == types.Double {
			v = g.emitTo(ir.Instr{Op: ir.OpLoadF, FImm: 0})
		} else {
			v = g.loadImm(0)
		}
	} else {
		var err error
		v, err = g.genExprAs(e, valueType(t))
		if err != nil {
			return err
		}
	}
	addr := base
	if off != 0 {
		o := g.loadImm(off)
		addr = g.emitTo(ir.Instr{Op: ir.OpAdd, A: base, B: o})
	}
	g.emit(ir.Instr{Op: ir.OpPStore, A: addr, B: v, Tags: tags, Size: t.Size()})
	return nil
}

func (g *generator) genIf(n *ast.If) error {
	thenB := g.fn.NewBlock("")
	var elseB *ir.Block
	joinB := g.fn.NewBlock("")
	if n.Else != nil {
		elseB = g.fn.NewBlock("")
	} else {
		elseB = joinB
	}
	if err := g.genCond(n.Cond, thenB, elseB); err != nil {
		return err
	}
	g.enter(thenB)
	if err := g.genStmt(n.Then); err != nil {
		return err
	}
	g.branchTo(joinB)
	if n.Else != nil {
		g.enter(elseB)
		if err := g.genStmt(n.Else); err != nil {
			return err
		}
		g.branchTo(joinB)
	}
	g.enter(joinB)
	return nil
}

func (g *generator) genWhile(n *ast.While) error {
	condB := g.fn.NewBlock("")
	bodyB := g.fn.NewBlock("")
	exitB := g.fn.NewBlock("")
	g.branchTo(condB)
	g.enter(condB)
	if err := g.genCond(n.Cond, bodyB, exitB); err != nil {
		return err
	}
	g.brk = append(g.brk, exitB)
	g.cont = append(g.cont, condB)
	g.enter(bodyB)
	err := g.genStmt(n.Body)
	g.brk = g.brk[:len(g.brk)-1]
	g.cont = g.cont[:len(g.cont)-1]
	if err != nil {
		return err
	}
	g.branchTo(condB)
	g.enter(exitB)
	return nil
}

func (g *generator) genDoWhile(n *ast.DoWhile) error {
	bodyB := g.fn.NewBlock("")
	condB := g.fn.NewBlock("")
	exitB := g.fn.NewBlock("")
	g.branchTo(bodyB)
	g.brk = append(g.brk, exitB)
	g.cont = append(g.cont, condB)
	g.enter(bodyB)
	err := g.genStmt(n.Body)
	g.brk = g.brk[:len(g.brk)-1]
	g.cont = g.cont[:len(g.cont)-1]
	if err != nil {
		return err
	}
	g.branchTo(condB)
	g.enter(condB)
	if err := g.genCond(n.Cond, bodyB, exitB); err != nil {
		return err
	}
	g.enter(exitB)
	return nil
}

func (g *generator) genFor(n *ast.For) error {
	if n.Init != nil {
		if err := g.genStmt(n.Init); err != nil {
			return err
		}
	}
	condB := g.fn.NewBlock("")
	bodyB := g.fn.NewBlock("")
	postB := g.fn.NewBlock("")
	exitB := g.fn.NewBlock("")
	g.branchTo(condB)
	g.enter(condB)
	if n.Cond != nil {
		if err := g.genCond(n.Cond, bodyB, exitB); err != nil {
			return err
		}
	} else {
		g.branchTo(bodyB)
	}
	g.brk = append(g.brk, exitB)
	g.cont = append(g.cont, postB)
	g.enter(bodyB)
	err := g.genStmt(n.Body)
	g.brk = g.brk[:len(g.brk)-1]
	g.cont = g.cont[:len(g.cont)-1]
	if err != nil {
		return err
	}
	g.branchTo(postB)
	g.enter(postB)
	if n.Post != nil {
		if _, err := g.genExpr(n.Post); err != nil {
			return err
		}
	}
	g.branchTo(condB)
	g.enter(exitB)
	return nil
}

// valueType is the type a value of declared type t has when loaded:
// small integers widen in registers, so the register type matters
// only for float-vs-int and pointer scaling decisions.
func valueType(t *types.Type) *types.Type { return t }
