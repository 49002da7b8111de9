// Package valnum implements local value numbering with constant
// folding. Within each basic block, pure computations that repeat an
// earlier computation are replaced by register copies, constant
// operands fold at compile time, and memory-aware numbering removes
// loads that repeat an earlier load or store of the same tag when no
// intervening operation can have changed the location — the tag lists
// make that query exact.
package valnum

import (
	"math"

	"regpromo/internal/ir"
)

// Run value-numbers every block of every function; it returns the
// number of instructions simplified.
func Run(m *ir.Module) int {
	n := 0
	for _, fn := range m.FuncsInOrder() {
		n += Func(fn)
	}
	return n
}

// Func value-numbers one function.
func Func(fn *ir.Func) int {
	s := &valnumState{
		vn:       make(map[ir.Reg]int),
		leader:   make(map[int]exprVal),
		expr:     make(map[exprKey]exprVal),
		constOf:  make(map[int]int64),
		isConst:  make(map[int]bool),
		constVN:  make(map[int64]int),
		fconstVN: make(map[uint64]int),
		memVal:   make(map[ir.TagID]memFact),
	}
	n := 0
	for _, b := range fn.Blocks {
		s.reset()
		n += s.block(b)
	}
	return n
}

type valnumState struct {
	// vn maps a register to its value number.
	vn map[ir.Reg]int
	// leader maps a value number to the first register that held it,
	// for operand canonicalization: rewriting operands to the leader
	// turns copy chains into direct uses, which both exposes more
	// matches here and lets pointer-based promotion see one base
	// register per address (§3.3).
	leader map[int]exprVal
	// expr maps an expression key to (value number, holding reg).
	expr map[exprKey]exprVal
	// constOf maps a value number to a known integer constant.
	constOf map[int]int64
	isConst map[int]bool
	// constVN gives every distinct constant one value number, so
	// repeated loadI of the same literal share a class (and operand
	// canonicalization then drops the duplicates).
	constVN  map[int64]int
	fconstVN map[uint64]int
	// memVal maps a tag to the register holding its current value
	// (established by a load or store in this block).
	memVal map[ir.TagID]memFact
	next   int
}

// exprKey identifies a computation: the operation and the value
// numbers of its operands (b is 0, which no value number takes, for
// unary operations), or for an address materialization the named
// function and tag.
type exprKey struct {
	op     ir.Op
	a, b   int
	callee string
	tag    ir.TagID
}

// reset empties the tables for the next block; numbering is local to
// a block.
func (s *valnumState) reset() {
	clear(s.vn)
	clear(s.leader)
	clear(s.expr)
	clear(s.constOf)
	clear(s.isConst)
	clear(s.constVN)
	clear(s.fconstVN)
	clear(s.memVal)
	s.next = 0
}

type exprVal struct {
	vn  int
	reg ir.Reg
}

// memFact records which register holds a tag's current value and the
// access width that established it.
type memFact struct {
	exprVal
	size int
}

// valid reports whether the recorded holding register still carries
// the recorded value. Registers are not in SSA form, so a later
// redefinition changes the register's value number and invalidates
// the fact.
func (s *valnumState) valid(e exprVal) bool { return s.vn[e.reg] == e.vn }

// lookup returns the live table entry for key, if any.
func (s *valnumState) lookup(key exprKey) (exprVal, bool) {
	e, ok := s.expr[key]
	if !ok || !s.valid(e) {
		return exprVal{}, false
	}
	return e, true
}

// record stores a table entry for key held in reg.
func (s *valnumState) record(key exprKey, reg ir.Reg, vn int) {
	s.expr[key] = exprVal{vn: vn, reg: reg}
}

func (s *valnumState) valueOf(r ir.Reg) int {
	if v, ok := s.vn[r]; ok {
		return v
	}
	s.next++
	s.vn[r] = s.next
	return s.next
}

// defConst records that r now holds the integer constant c, reusing
// the constant's existing value class when a live leader holds it.
func (s *valnumState) defConst(r ir.Reg, c int64) {
	if v, ok := s.constVN[c]; ok {
		if l, has := s.leader[v]; has && s.valid(l) {
			s.vn[r] = v
			return
		}
	}
	v := s.fresh(r)
	s.constOf[v] = c
	s.isConst[v] = true
	s.constVN[c] = v
}

func (s *valnumState) fresh(r ir.Reg) int {
	s.next++
	s.vn[r] = s.next
	s.leader[s.next] = exprVal{vn: s.next, reg: r}
	return s.next
}

func (s *valnumState) block(b *ir.Block) int {
	changed := 0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		// Canonicalize operands to their value leaders first, so a
		// register defined by a copy reads as the copied-from value.
		in.MapUses(func(u ir.Reg) ir.Reg {
			v, known := s.vn[u]
			if !known {
				return u
			}
			if l, ok := s.leader[v]; ok && s.valid(l) && l.reg != u {
				changed++
				return l.reg
			}
			return u
		})
		switch in.Op {
		case ir.OpLoadI:
			s.defConst(in.Dst, in.Imm)

		case ir.OpLoadF:
			bits := math.Float64bits(in.FImm)
			if v, ok := s.fconstVN[bits]; ok {
				if l, has := s.leader[v]; has && s.valid(l) {
					s.vn[in.Dst] = v
					continue
				}
			}
			v := s.fresh(in.Dst)
			s.fconstVN[bits] = v

		case ir.OpCopy:
			// The destination takes the source's value number, so
			// later expressions see through copies.
			s.vn[in.Dst] = s.valueOf(in.A)

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
			va, vb := s.valueOf(in.A), s.valueOf(in.B)
			// Constant folding.
			if s.isConst[va] && s.isConst[vb] {
				if c, ok := foldInt(in.Op, s.constOf[va], s.constOf[vb]); ok {
					*in = ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: c}
					s.defConst(in.Dst, c)
					changed++
					continue
				}
			}
			if in.Op.IsCommutative() && vb < va {
				va, vb = vb, va
			}
			key := exprKey{op: in.Op, a: va, b: vb}
			if prev, ok := s.lookup(key); ok {
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: prev.reg}
				s.vn[in.Dst] = prev.vn
				changed++
				continue
			}
			v := s.fresh(in.Dst)
			s.record(key, in.Dst, v)

		case ir.OpNeg, ir.OpNot, ir.OpI2F, ir.OpF2I, ir.OpFNeg:
			va := s.valueOf(in.A)
			if in.Op == ir.OpNeg && s.isConst[va] {
				c := -s.constOf[va]
				*in = ir.Instr{Op: ir.OpLoadI, Dst: in.Dst, Imm: c}
				s.defConst(in.Dst, c)
				changed++
				continue
			}
			key := exprKey{op: in.Op, a: va}
			if prev, ok := s.lookup(key); ok {
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: prev.reg}
				s.vn[in.Dst] = prev.vn
				changed++
				continue
			}
			v := s.fresh(in.Dst)
			s.record(key, in.Dst, v)

		case ir.OpAddrOf:
			key := exprKey{op: in.Op, callee: in.Callee, tag: in.Tag}
			if prev, ok := s.lookup(key); ok {
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: prev.reg}
				s.vn[in.Dst] = prev.vn
				changed++
				continue
			}
			v := s.fresh(in.Dst)
			s.record(key, in.Dst, v)

		case ir.OpSLoad, ir.OpCLoad:
			if prev, ok := s.memVal[in.Tag]; ok && prev.size == in.Size && s.valid(prev.exprVal) {
				*in = ir.Instr{Op: ir.OpCopy, Dst: in.Dst, A: prev.reg}
				s.vn[in.Dst] = prev.vn
				changed++
				continue
			}
			v := s.fresh(in.Dst)
			s.memVal[in.Tag] = memFact{exprVal{vn: v, reg: in.Dst}, in.Size}

		case ir.OpSStore:
			// The store establishes the tag's current value. Any
			// other tag a pointer may alias is unaffected: scalar
			// stores name exactly one location.
			s.memVal[in.Tag] = memFact{exprVal{vn: s.valueOf(in.A), reg: in.A}, in.Size}

		case ir.OpPLoad:
			s.fresh(in.Dst)

		case ir.OpPStore:
			// Kill facts for every tag the store may touch.
			s.killTags(in.Tags)

		case ir.OpJsr:
			if in.Def() != ir.RegInvalid {
				s.fresh(in.Dst)
			}
			s.killTags(in.Mods)

		default:
			if d := in.Def(); d != ir.RegInvalid {
				s.fresh(d)
			}
		}
	}
	return changed
}

func (s *valnumState) killTags(tags ir.TagSet) {
	if tags.IsTop() {
		clear(s.memVal)
		return
	}
	tags.ForEach(func(t ir.TagID) {
		delete(s.memVal, t)
	})
}

// foldInt evaluates op on two constants when defined.
func foldInt(op ir.Op, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << (uint64(b) & 63), true
	case ir.OpShr:
		return a >> (uint64(b) & 63), true
	case ir.OpCmpEQ:
		return b2i(a == b), true
	case ir.OpCmpNE:
		return b2i(a != b), true
	case ir.OpCmpLT:
		return b2i(a < b), true
	case ir.OpCmpLE:
		return b2i(a <= b), true
	case ir.OpCmpGT:
		return b2i(a > b), true
	case ir.OpCmpGE:
		return b2i(a >= b), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
