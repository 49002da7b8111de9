// Package licm implements loop-invariant code motion: pure register
// computations whose operands do not change inside a loop are hoisted
// to the loop's landing pad. Address computations hoisted this way are
// what the §3.3 pointer-based promotion keys on ("This algorithm
// relies on loop-invariant code motion to identify the loop-invariant
// base registers and place the computation of these registers outside
// a loop"). cLoads (invariant-by-contract memory values, Table 1) are
// hoisted too; sLoad/pLoad removal is left to promotion and PRE,
// matching the paper's division of labor.
//
// Because the IL is not in SSA form, a hoist candidate must satisfy
// strict conditions: it is the register's only definition in the
// function, it dominates every use of the register, its operands have
// no definitions inside the loop, and the operation cannot fault when
// executed speculatively (division is excluded).
package licm

import (
	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// Run hoists invariant code in every function and returns the number
// of instructions moved.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// Func hoists invariant code in one function.
func Func(fn *ir.Func) int {
	dom, forest := cfg.Normalize(fn)
	if len(forest.Loops) == 0 {
		return 0
	}
	st := newState(fn, dom)
	moved := 0
	// Innermost loops first, so code migrates outward one level per
	// pass; repeat until nothing moves.
	for {
		n := 0
		loops := forest.PreorderLoops()
		for i := len(loops) - 1; i >= 0; i-- {
			n += st.hoist(loops[i])
		}
		moved += n
		if n == 0 {
			return moved
		}
	}
}

type state struct {
	// uses locates every register read; hoist keeps it current as
	// operands move to landing pads.
	uses *cfg.UseIndex
	// defCount counts definitions per register over the whole
	// function; maintained across hoists (moves do not change it).
	defCount []int
	// loopDefs is scratch for hoist, reused across loops.
	loopDefs []int
}

func newState(fn *ir.Func, dom *cfg.DomTree) *state {
	st := &state{
		uses:     cfg.NewUseIndex(fn, dom),
		defCount: make([]int, fn.NumRegs),
		loopDefs: make([]int, fn.NumRegs),
	}
	// Parameters carry an implicit entry definition.
	for _, p := range fn.Params {
		st.defCount[p]++
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.RegInvalid {
				st.defCount[d]++
			}
		}
	}
	return st
}

// hoist moves invariant instructions of l into its landing pad.
func (st *state) hoist(l *cfg.Loop) int {
	moved := 0
	// Definitions inside this loop; every count is zero again when
	// hoist returns.
	loopDefs := st.loopDefs
	for b := range l.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.RegInvalid {
				loopDefs[d]++
			}
		}
	}
	var buf [8]ir.Reg
	for _, b := range l.BlocksInOrder() {
		st.uses.StartBlock()
		kept := b.Instrs[:0]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			st.uses.Step(in)
			if st.invariant(in, loopDefs, buf[:0]) && st.uses.DominatesUses(b, in.Dst) {
				st.uses.Hoist(in, b, l.Pad)
				insertBeforeTerminator(l.Pad, *in)
				loopDefs[in.Dst] = 0
				moved++
				continue
			}
			kept = append(kept, *in)
		}
		b.Instrs = kept
	}
	for b := range l.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.RegInvalid {
				loopDefs[d] = 0
			}
		}
	}
	return moved
}

// invariant reports whether in is a hoist candidate: a speculatable
// instruction that is its register's only definition and reads no
// register defined in the loop.
func (st *state) invariant(in *ir.Instr, loopDefs []int, buf []ir.Reg) bool {
	if !hoistable(in) {
		return false
	}
	if d := in.Def(); d == ir.RegInvalid || st.defCount[d] != 1 {
		return false
	}
	for _, u := range in.Uses(buf) {
		if loopDefs[u] != 0 {
			return false
		}
	}
	return true
}

// hoistable reports whether the instruction may be executed
// speculatively in the landing pad: pure, no memory access, and
// incapable of faulting (division is excluded).
func hoistable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpLoadI, ir.OpLoadF, ir.OpAddrOf,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpNeg,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpShl, ir.OpShr,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFNeg,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE,
		ir.OpI2F, ir.OpF2I:
		return true
	case ir.OpCLoad:
		// cLoad names an invariant value by definition (Table 1).
		return true
	}
	return false
}

func insertBeforeTerminator(b *ir.Block, in ir.Instr) {
	n := len(b.Instrs)
	b.Instrs = append(b.Instrs, ir.Instr{})
	copy(b.Instrs[n:], b.Instrs[n-1:])
	b.Instrs[n-1] = in
}
