package cfg

import "regpromo/internal/ir"

// UseIndex records, for every register of a function, the blocks that
// read it, so a pass can ask whether a definition dominates every use
// of its register with one dominance query per reading block instead
// of a walk over the whole function. Order inside the definition's own
// block comes from a walk: the pass steps through that block's
// instructions in order, and the index counts the reads it has passed.
type UseIndex struct {
	dom *DomTree
	// reads[r] lists each block that reads r, with its read count.
	reads [][]blockReads
	// walked[r] counts the reads of r among the instructions stepped
	// over in the current block; touched lists the registers with a
	// nonzero count.
	walked  []int32
	touched []ir.Reg
}

type blockReads struct {
	b *ir.Block
	n int32
}

// NewUseIndex indexes every register read in fn. dom must be fn's
// current dominator tree.
func NewUseIndex(fn *ir.Func, dom *DomTree) *UseIndex {
	x := &UseIndex{
		dom:    dom,
		reads:  make([][]blockReads, fn.NumRegs),
		walked: make([]int32, fn.NumRegs),
	}
	// Blocks are visited one at a time, so b can only be the last
	// entry of a list. A first sweep counts each register's reading
	// blocks (in walked, zero again afterwards), so that every list is
	// carved from one array.
	last := make([]*ir.Block, fn.NumRegs)
	total := 0
	var buf [8]ir.Reg
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			for _, u := range b.Instrs[i].Uses(buf[:0]) {
				if last[u] != b {
					last[u] = b
					x.walked[u]++
					total++
				}
			}
		}
	}
	backing := make([]blockReads, total)
	for r, n := range x.walked {
		x.reads[r] = backing[:0:n]
		backing = backing[n:]
		x.walked[r] = 0
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			for _, u := range b.Instrs[i].Uses(buf[:0]) {
				rs := x.reads[u]
				if n := len(rs); n > 0 && rs[n-1].b == b {
					rs[n-1].n++
				} else {
					x.reads[u] = append(rs, blockReads{b, 1})
				}
			}
		}
	}
	return x
}

// StartBlock begins a walk over a new block: no reads have been passed.
func (x *UseIndex) StartBlock() {
	for _, r := range x.touched {
		x.walked[r] = 0
	}
	x.touched = x.touched[:0]
}

// Step passes the next instruction of the walked block.
func (x *UseIndex) Step(in *ir.Instr) {
	var buf [8]ir.Reg
	for _, u := range in.Uses(buf[:0]) {
		if x.walked[u] == 0 {
			x.touched = append(x.touched, u)
		}
		x.walked[u]++
	}
}

// DominatesUses reports whether a definition of r by the instruction
// just stepped over in block db dominates every use of r: no read of r
// comes at or before it in db, and db dominates every other block
// that reads r.
func (x *UseIndex) DominatesUses(db *ir.Block, r ir.Reg) bool {
	if x.walked[r] != 0 {
		return false
	}
	for _, br := range x.reads[r] {
		if br.b != db && !x.dom.Dominates(db, br.b) {
			return false
		}
	}
	return true
}

// Hoist records that the instruction just stepped over in block from
// now sits in block to, which is outside the walked block: its reads
// move with it.
func (x *UseIndex) Hoist(in *ir.Instr, from, to *ir.Block) {
	var buf [8]ir.Reg
	for _, u := range in.Uses(buf[:0]) {
		x.walked[u]--
		rs := x.reads[u]
		for i := range rs {
			if rs[i].b == from {
				if rs[i].n--; rs[i].n == 0 {
					rs[i] = rs[len(rs)-1]
					rs = rs[:len(rs)-1]
				}
				break
			}
		}
		found := false
		for i := range rs {
			if rs[i].b == to {
				rs[i].n++
				found = true
				break
			}
		}
		if !found {
			rs = append(rs, blockReads{to, 1})
		}
		x.reads[u] = rs
	}
}
