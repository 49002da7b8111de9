package cfg

import (
	"testing"

	"regpromo/internal/ir"
)

// TestUseIndexDominance walks a loop whose body computes r1 from r0
// and checks DominatesUses against the three ways a definition can
// fail to dominate a use: a read earlier in its own block, a read in
// a block it does not dominate, and a read that a hoist moved above it.
func TestUseIndexDominance(t *testing.T) {
	// B0: r0 = 1; br B1
	// B1: r1 = r0 + r0; r2 = r1 + r1; cbr r2 -> B1, B2
	// B2: ret r1
	fn := buildFunc([][]int{{1}, {1, 2}, {}})
	b0, b1, b2 := fn.Blocks[0], fn.Blocks[1], fn.Blocks[2]
	r0, r1, r2 := fn.NewReg(), fn.NewReg(), fn.NewReg()
	b0.Instrs = append([]ir.Instr{{Op: ir.OpLoadI, Dst: r0, Imm: 1}}, b0.Instrs...)
	b1.Instrs = []ir.Instr{
		{Op: ir.OpAdd, Dst: r1, A: r0, B: r0},
		{Op: ir.OpAdd, Dst: r2, A: r1, B: r1},
		{Op: ir.OpCBr, A: r2},
	}
	b2.Instrs = []ir.Instr{{Op: ir.OpRet, A: r1, HasValue: true}}
	x := NewUseIndex(fn, Dominators(fn))

	x.StartBlock()
	if !x.DominatesUses(b1, r0) {
		t.Error("r0 defined at the top of B1 would dominate its reads in B1")
	}
	x.Step(&b1.Instrs[0])
	if x.DominatesUses(b1, r0) {
		t.Error("a definition of r0 after its read in B1 dominates that read")
	}
	if !x.DominatesUses(b1, r1) {
		t.Error("r1's definition dominates its reads later in B1 and in B2")
	}
	x.Step(&b1.Instrs[1])
	if !x.DominatesUses(b1, r2) {
		t.Error("r2's definition dominates the branch that reads it")
	}

	// Hoisting r1's computation into B0 moves its reads of r0 there:
	// a definition of r0 in B1 no longer dominates them.
	x.StartBlock()
	x.Step(&b1.Instrs[0])
	x.Hoist(&b1.Instrs[0], b1, b0)
	x.StartBlock()
	if x.DominatesUses(b1, r0) {
		t.Error("after the hoist, r0 is read in B0, which B1 does not dominate")
	}
	if !x.DominatesUses(b0, r0) {
		t.Error("r0 defined in B0 dominates its hoisted reads")
	}

	// B2 does not dominate B1, where r2 is read.
	x.StartBlock()
	if x.DominatesUses(b2, r2) {
		t.Error("a definition in B2 dominates a read in B1")
	}
}
