package ir

import "strconv"

// BlockID numbers a basic block within its function.
type BlockID int32

// Block is a basic block: a straight-line instruction sequence ending
// in a terminator, plus explicit successor/predecessor edges.
type Block struct {
	ID     BlockID
	Instrs []Instr
	Succs  []*Block
	Preds  []*Block

	// Label is a human-readable name for dumps ("B3", "B3.pad", …).
	Label string
}

// Terminator returns the block's final instruction, or nil for an
// empty block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	in := &b.Instrs[len(b.Instrs)-1]
	if !in.Op.IsTerminator() {
		return nil
	}
	return in
}

// HasSucc reports whether s is a successor of b.
func (b *Block) HasSucc(s *Block) bool {
	for _, t := range b.Succs {
		if t == s {
			return true
		}
	}
	return false
}

// ReplaceSucc redirects every edge b→from to b→to and fixes the
// predecessor lists of both ends.
func (b *Block) ReplaceSucc(from, to *Block) {
	for i, s := range b.Succs {
		if s == from {
			b.Succs[i] = to
			from.removePred(b)
			to.Preds = append(to.Preds, b)
		}
	}
}

func (b *Block) removePred(p *Block) {
	for i, q := range b.Preds {
		if q == p {
			b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
			return
		}
	}
}

// Func is one IL function.
type Func struct {
	Name string

	// Params are the registers that receive the arguments, in
	// order. Callees copy incoming values here on entry.
	Params []Reg

	// NumRegs is the number of virtual registers allocated so far;
	// register numbers are in [0, NumRegs).
	NumRegs int

	Entry  *Block
	Blocks []*Block

	// Locals lists the tags of stack-resident locals (address-taken
	// scalars, arrays, structs) owned by this function, in frame
	// layout order.
	Locals []TagID

	// HasVarRet records whether the function returns a value.
	HasVarRet bool

	// Allocated is set once physical register allocation has run;
	// NumRegs is then the physical register count actually used.
	Allocated bool
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// NewBlock allocates a new block, appends it to the function, and
// returns it.
func (f *Func) NewBlock(label string) *Block {
	b := &Block{ID: BlockID(len(f.Blocks)), Label: label}
	if b.Label == "" {
		b.Label = defaultLabel(b.ID)
	}
	f.Blocks = append(f.Blocks, b)
	return b
}

// defaultLabel is the label NewBlock gives an unnamed block.
func defaultLabel(id BlockID) string { return "B" + strconv.Itoa(int(id)) }

// Renumber reassigns dense block ids in slice order and refreshes
// default labels of the form "B<n>".
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		id := BlockID(i)
		if b.ID == id {
			continue
		}
		if b.Label == defaultLabel(b.ID) {
			b.Label = defaultLabel(id)
		}
		b.ID = id
	}
}

// AddEdge records a CFG edge from p to s.
func AddEdge(p, s *Block) {
	p.Succs = append(p.Succs, s)
	s.Preds = append(s.Preds, p)
}

// blockMarks is a set of blocks, indexed by ID for the function's own
// blocks. A block whose ID does not name its slot in f.Blocks — only
// malformed IL, which the verifier and the lints must still walk —
// goes in a map instead.
type blockMarks struct {
	f       *Func
	byID    []bool
	foreign map[*Block]bool
}

func (f *Func) newBlockMarks() *blockMarks {
	return &blockMarks{f: f, byID: make([]bool, len(f.Blocks))}
}

func (m *blockMarks) own(b *Block) bool {
	return int(b.ID) >= 0 && int(b.ID) < len(m.f.Blocks) && m.f.Blocks[b.ID] == b
}

func (m *blockMarks) has(b *Block) bool {
	if m.own(b) {
		return m.byID[b.ID]
	}
	return m.foreign[b]
}

func (m *blockMarks) add(b *Block) {
	if m.own(b) {
		m.byID[b.ID] = true
		return
	}
	if m.foreign == nil {
		m.foreign = make(map[*Block]bool)
	}
	m.foreign[b] = true
}

// reachable returns the set of blocks reachable from the entry,
// calling visit (when non-nil) on each in depth-first preorder.
func (f *Func) reachable(visit func(*Block)) *blockMarks {
	seen := f.newBlockMarks()
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil || seen.has(b) {
			return
		}
		seen.add(b)
		if visit != nil {
			visit(b)
		}
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(f.Entry)
	return seen
}

// ReachableBlocks returns the blocks reachable from the entry in
// depth-first preorder.
func (f *Func) ReachableBlocks() []*Block {
	var order []*Block
	f.reachable(func(b *Block) { order = append(order, b) })
	return order
}

// RemoveUnreachable drops blocks not reachable from the entry and
// fixes predecessor lists.
func (f *Func) RemoveUnreachable() {
	reach := f.reachable(nil)
	kept := make([]*Block, 0, len(f.Blocks))
	for _, b := range f.Blocks {
		if !reach.has(b) {
			continue
		}
		kept = append(kept, b)
		for i, p := range b.Preds {
			if reach.has(p) {
				continue
			}
			preds := append([]*Block(nil), b.Preds[:i]...)
			for _, q := range b.Preds[i+1:] {
				if reach.has(q) {
					preds = append(preds, q)
				}
			}
			b.Preds = preds
			break
		}
	}
	f.Blocks = kept
	f.Renumber()
}

// Reloc records that the 8 bytes at Offset within an initialized
// global hold the run-time address of Target (plus Addend). The
// loader patches them once the memory layout is fixed.
type Reloc struct {
	Offset int
	Target TagID
	Addend int64
}

// GlobalInit describes one global variable's static initialization.
type GlobalInit struct {
	Tag TagID
	// Data holds the initial bytes (zero-filled to the tag's size
	// when shorter).
	Data []byte
	// Relocs are address patches applied at load time.
	Relocs []Reloc
}

// Module is a whole compiled program.
type Module struct {
	Funcs map[string]*Func
	// FuncOrder lists function names in source order, for
	// deterministic iteration.
	FuncOrder []string
	Tags      TagTable
	Inits     []GlobalInit

	// AddressedFuncs lists functions whose address is taken
	// (possible targets of indirect calls).
	AddressedFuncs []string
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{Funcs: make(map[string]*Func)}
}

// AddFunc registers fn in the module.
func (m *Module) AddFunc(fn *Func) {
	m.Funcs[fn.Name] = fn
	m.FuncOrder = append(m.FuncOrder, fn.Name)
}

// FuncsInOrder returns the functions in source order.
func (m *Module) FuncsInOrder() []*Func {
	out := make([]*Func, 0, len(m.FuncOrder))
	for _, name := range m.FuncOrder {
		out = append(out, m.Funcs[name])
	}
	return out
}
