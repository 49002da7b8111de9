// Package pre implements the load-redundancy half of partial
// redundancy elimination. The paper's compiler uses PRE with memory
// tag information to remove redundant loads in straight-line code
// while treating stores conservatively (§3.4: "It uses the tag fields
// to eliminate redundant loads. It must treat stores more
// conservatively."); this pass does the same, globally.
//
// The analysis computes, for every block boundary, the set of
// available (tag, register) pairs: pairs such that on every incoming
// path the register holds the tag's current memory value. A load
// generates its (tag, destination) pair; a scalar store generates
// (tag, source); an ambiguous write kills every pair for the tags it
// may touch; redefining a register kills the pairs it holds. Only
// single-definition registers participate, so a pair can never be
// silently invalidated by an unrelated redefinition on another path.
// Gen and kill are independent of the incoming fact set, which makes
// the transfer functions distributive and the fixed point exact.
//
// A later sLoad of a tag with an available pair is rewritten into a
// copy from the holding register. This also achieves "most of the
// effects of promotion in straight-line code" (§3.1).
package pre

import (
	"slices"
	"sort"

	"regpromo/internal/dataflow"
	"regpromo/internal/ir"
)

// Run eliminates redundant loads in every function; it returns the
// number of loads removed.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// fact is one available pair: reg holds tag's current value, loaded
// or stored with the given access width.
type fact struct {
	tag  ir.TagID
	reg  ir.Reg
	size int
}

func (f fact) less(o fact) bool {
	if f.tag != o.tag {
		return f.tag < o.tag
	}
	if f.reg != o.reg {
		return f.reg < o.reg
	}
	return f.size < o.size
}

// facts is a set of facts kept sorted by (tag, reg, size), so a tag's
// facts form one contiguous run, lowest register first. A nil facts
// is ⊤ ("not yet computed"); an empty non-nil one is ∅.
type facts []fact

func (f facts) clone() facts { return append(make(facts, 0, len(f)), f...) }

// search returns the position of x in f, or where it would go.
func (f facts) search(x fact) int {
	return sort.Search(len(f), func(i int) bool { return !f[i].less(x) })
}

// tagRun returns the bounds of t's run.
func (f facts) tagRun(t ir.TagID) (lo, hi int) {
	lo = sort.Search(len(f), func(i int) bool { return f[i].tag >= t })
	hi = lo
	for hi < len(f) && f[hi].tag == t {
		hi++
	}
	return lo, hi
}

func (f *facts) add(x fact) {
	s := *f
	i := s.search(x)
	if i < len(s) && s[i] == x {
		return
	}
	s = append(s, fact{})
	copy(s[i+1:], s[i:])
	s[i] = x
	*f = s
}

func (f *facts) remove(x fact) {
	s := *f
	if i := s.search(x); i < len(s) && s[i] == x {
		*f = append(s[:i], s[i+1:]...)
	}
}

func intersect(a, b facts) facts {
	out := make(facts, 0, min(len(a), len(b)))
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i].less(b[j]):
			i++
		default:
			j++
		}
	}
	return out
}

func equal(a, b facts) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// holdings indexes facts by register: for each single-definition
// register, the (tag, size) pairs it can ever hold, read off the loads
// that define it and the stores that write it.
type holdings [][]fact

// Func eliminates redundant loads in one function.
func Func(fn *ir.Func) int {
	fn.RemoveUnreachable()
	n := len(fn.Blocks)

	defCount := make([]int, fn.NumRegs)
	// Parameters carry an implicit entry definition.
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
	held := make(holdings, fn.NumRegs)
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			r := ir.RegInvalid
			switch in.Op {
			case ir.OpSLoad, ir.OpCLoad:
				r = in.Dst
			case ir.OpSStore:
				r = in.A
			}
			if r == ir.RegInvalid || defCount[r] != 1 {
				continue
			}
			if x := (fact{in.Tag, r, in.Size}); !slices.Contains(held[r], x) {
				held[r] = append(held[r], x)
			}
		}
	}

	// Solve forward over the worklist kernel (reverse-postorder
	// visits, so every block except the entry sees a processed
	// predecessor on the first pass). A nil OUT means ⊤ — "not yet
	// computed" — and such predecessors are skipped in the meet; they
	// must never be treated as ∅, or the descent from ⊤ would lose
	// monotonicity and could cycle.
	in := make([]facts, n)
	out := make([]facts, n)
	dataflow.SolveBlocks(fn, dataflow.Forward, func(b *ir.Block) bool {
		var cur facts
		if b == fn.Entry {
			cur = facts{} // nothing is available at entry
		} else {
			first := true
			for _, p := range b.Preds {
				po := out[p.ID]
				if po == nil {
					continue // ⊤: contributes nothing to the meet
				}
				if first {
					cur = po.clone()
					first = false
				} else {
					cur = intersect(cur, po)
				}
			}
			if cur == nil {
				// Every predecessor still ⊤: re-queued when one is.
				return false
			}
		}
		in[b.ID] = cur.clone()
		transfer(b, &cur, defCount, held, false)
		if out[b.ID] == nil || !equal(out[b.ID], cur) {
			out[b.ID] = cur
			return true
		}
		return false
	})

	removed := 0
	for _, b := range fn.Blocks {
		if in[b.ID] == nil {
			continue // unreachable in RPO (no processed predecessor)
		}
		removed += transfer(b, &in[b.ID], defCount, held, true)
	}
	return removed
}

// transfer applies b's instructions to cur; in rewrite mode redundant
// loads become copies (the state transitions are identical either
// way: a load's destination holds the tag's value whether the value
// arrived from memory or from the copy source).
func transfer(b *ir.Block, cur *facts, defCount []int, held holdings, rewrite bool) int {
	removed := 0
	for i := range b.Instrs {
		instr := &b.Instrs[i]
		switch instr.Op {
		case ir.OpSLoad, ir.OpCLoad:
			if rewrite {
				if r, ok := holder(*cur, instr.Tag, instr.Size); ok && r != instr.Dst {
					*instr = ir.Instr{Op: ir.OpCopy, Dst: instr.Dst, A: r}
					removed++
				}
			}
			killReg(cur, held, instr.Dst)
			if defCount[instr.Dst] == 1 {
				cur.add(fact{instr.Tag, instr.Dst, instr.Size})
			}
		case ir.OpSStore:
			killTag(cur, instr.Tag)
			if defCount[instr.A] == 1 {
				cur.add(fact{instr.Tag, instr.A, instr.Size})
			}
		case ir.OpPStore:
			killTags(cur, instr.Tags)
		case ir.OpJsr:
			killTags(cur, instr.Mods)
			if d := instr.Def(); d != ir.RegInvalid {
				killReg(cur, held, d)
			}
		default:
			if d := instr.Def(); d != ir.RegInvalid {
				killReg(cur, held, d)
			}
		}
	}
	return removed
}

// holder picks the available register for (tag, size),
// deterministically (lowest register number).
func holder(cur facts, tag ir.TagID, size int) (ir.Reg, bool) {
	lo, hi := cur.tagRun(tag)
	for _, f := range cur[lo:hi] {
		if f.size == size {
			return f.reg, true
		}
	}
	return ir.RegInvalid, false
}

func killReg(cur *facts, held holdings, r ir.Reg) {
	for _, f := range held[r] {
		cur.remove(f)
	}
}

func killTag(cur *facts, t ir.TagID) {
	lo, hi := cur.tagRun(t)
	*cur = append((*cur)[:lo], (*cur)[hi:]...)
}

func killTags(cur *facts, tags ir.TagSet) {
	if tags.IsTop() {
		*cur = (*cur)[:0]
		return
	}
	out := (*cur)[:0]
	for _, f := range *cur {
		if !tags.Has(f.tag) {
			out = append(out, f)
		}
	}
	*cur = out
}
