// Package copyprop implements global copy propagation: a use of x,
// where x is defined exactly once and that definition is "x ← cp y"
// with y itself defined at most once, reads the same value as y, so
// the use can name y directly. The copies this leaves dead are
// removed by dead-code elimination, and the register allocator's
// coalescer handles the loop-carried copies this pass cannot touch.
//
// The single-definition requirements make the transformation sound in
// the non-SSA IL: with one definition of y there is no program point
// where x is live but y holds a different value, and the dominance
// check below rules out paths that could read x before its
// definition.
package copyprop

import (
	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// Run propagates copies in every function; it returns the number of
// copies propagated.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// Func propagates copies in one function.
func Func(fn *ir.Func) int {
	fn.RemoveUnreachable()
	dom := cfg.Dominators(fn)

	defCount := make([]int, fn.NumRegs)
	for _, p := range fn.Params {
		defCount[p]++
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.RegInvalid {
				defCount[d]++
			}
		}
	}

	// forward maps x -> y for propagatable copies (RegInvalid when x
	// is not one).
	forward := make([]ir.Reg, fn.NumRegs)
	for i := range forward {
		forward[i] = ir.RegInvalid
	}
	nForward := 0
	uses := cfg.NewUseIndex(fn, dom)
	for _, b := range fn.Blocks {
		uses.StartBlock()
		for i := range b.Instrs {
			in := &b.Instrs[i]
			uses.Step(in)
			if in.Op != ir.OpCopy {
				continue
			}
			x, y := in.Dst, in.A
			if defCount[x] != 1 || defCount[y] > 1 {
				continue
			}
			if !uses.DominatesUses(b, x) {
				continue
			}
			forward[x] = y
			nForward++
		}
	}
	if nForward == 0 {
		return 0
	}
	// Resolve chains x -> y -> z.
	resolve := func(r ir.Reg) ir.Reg {
		for i := 0; i < nForward; i++ {
			y := forward[r]
			if y == ir.RegInvalid {
				return r
			}
			r = y
		}
		return r
	}

	n := 0
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			b.Instrs[i].MapUses(func(u ir.Reg) ir.Reg {
				v := resolve(u)
				if v != u {
					n++
				}
				return v
			})
		}
	}
	return n
}
