// Package regalloc implements Chaitin–Briggs graph-coloring register
// allocation with conservative coalescing and optimistic coloring,
// after Briggs, Cooper & Torczon [1]. Promotion introduces copies
// between promoted values and their home registers; the coalescer
// removes most of them ("It is quite effective at eliminating copies
// like these", §3.1). When demand for registers exceeds the supply K,
// values spill to dedicated frame slots with explicit loads and
// stores — the mechanism behind the paper's water anecdote, where
// promoting twenty-eight values caused enough spilling to lose the
// promotion's benefit (§5).
package regalloc

import (
	"math/bits"

	"regpromo/internal/dataflow"
	"regpromo/internal/ir"
)

// bitset is a fixed-capacity bit vector over register numbers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) has(r ir.Reg) bool { return s[r/64]&(1<<(uint(r)%64)) != 0 }
func (s bitset) add(r ir.Reg)      { s[r/64] |= 1 << (uint(r) % 64) }
func (s bitset) del(r ir.Reg)      { s[r/64] &^= 1 << (uint(r) % 64) }

// first returns the lowest member of s.
func (s bitset) first() (ir.Reg, bool) {
	for i, w := range s {
		if w != 0 {
			return ir.Reg(i*64 + bits.TrailingZeros64(w)), true
		}
	}
	return ir.RegInvalid, false
}

func (s bitset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s bitset) orInto(o bitset) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s bitset) clone() bitset {
	out := make(bitset, len(s))
	copy(out, s)
	return out
}

func (s bitset) forEach(f func(ir.Reg)) {
	for i, w := range s {
		for w != 0 {
			f(ir.Reg(i*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// liveness computes per-block live-in/live-out sets.
type liveness struct {
	liveIn  []bitset
	liveOut []bitset
}

func computeLiveness(fn *ir.Func) *liveness {
	n := len(fn.Blocks)
	nr := fn.NumRegs
	use := make([]bitset, n)
	def := make([]bitset, n)
	lv := &liveness{liveIn: make([]bitset, n), liveOut: make([]bitset, n)}
	var buf [8]ir.Reg
	for _, b := range fn.Blocks {
		u, d := newBitset(nr), newBitset(nr)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.Uses(buf[:0]) {
				if !d.has(r) {
					u.add(r)
				}
			}
			if dd := in.Def(); dd != ir.RegInvalid {
				d.add(dd)
			}
		}
		use[b.ID], def[b.ID] = u, d
		lv.liveIn[b.ID] = newBitset(nr)
		lv.liveOut[b.ID] = newBitset(nr)
	}
	// Standard backward problem: out = ∪ succ in; in = use ∪ (out − def).
	// The worklist visits blocks in postorder and only re-examines a
	// block when a successor's live-in grew; the least fixpoint is the
	// same one the old round-robin sweep computed.
	tmp := newBitset(nr)
	dataflow.SolveBlocks(fn, dataflow.Backward, func(b *ir.Block) bool {
		out := lv.liveOut[b.ID]
		for _, s := range b.Succs {
			out.orInto(lv.liveIn[s.ID])
		}
		copy(tmp, out)
		for j := range tmp {
			tmp[j] &^= def[b.ID][j]
			tmp[j] |= use[b.ID][j]
		}
		return lv.liveIn[b.ID].orInto(tmp)
	})
	return lv
}

// Liveness exposes the allocator's per-block live-register sets to
// other subsystems — the static pressure analysis in
// internal/analysis/certify reads promoted-value liveness off it
// without re-deriving the dataflow.
type Liveness struct {
	lv *liveness
}

// ComputeLiveness solves the allocator's backward liveness problem
// over fn and returns the per-block live-in/live-out sets. Register
// numbers are fn's current (virtual or physical) names; callers that
// care about specific registers must query before any renaming pass.
func ComputeLiveness(fn *ir.Func) *Liveness {
	return &Liveness{lv: computeLiveness(fn)}
}

// LiveInHas reports whether r is live at the entry of block b.
func (l *Liveness) LiveInHas(b ir.BlockID, r ir.Reg) bool {
	return l.has(l.lv.liveIn, b, r)
}

// LiveOutHas reports whether r is live at the exit of block b.
func (l *Liveness) LiveOutHas(b ir.BlockID, r ir.Reg) bool {
	return l.has(l.lv.liveOut, b, r)
}

// LiveInCount returns how many registers are live at the entry of b.
func (l *Liveness) LiveInCount(b ir.BlockID) int {
	if int(b) >= len(l.lv.liveIn) {
		return 0
	}
	return l.lv.liveIn[b].count()
}

// LiveOutCount returns how many registers are live at the exit of b.
func (l *Liveness) LiveOutCount(b ir.BlockID) int {
	if int(b) >= len(l.lv.liveOut) {
		return 0
	}
	return l.lv.liveOut[b].count()
}

func (l *Liveness) has(sets []bitset, b ir.BlockID, r ir.Reg) bool {
	if int(b) >= len(sets) || r < 0 {
		return false
	}
	s := sets[b]
	if int(r)/64 >= len(s) {
		return false
	}
	return s.has(r)
}
