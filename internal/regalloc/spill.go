package regalloc

import (
	"fmt"

	"regpromo/internal/ir"
)

// insertSpills rewrites the function so that every spilled register
// class lives in a dedicated frame slot: each use loads the slot into
// a fresh temporary, each definition stores a fresh temporary back.
// The inserted sLoad/sStore operations are real memory traffic and
// count exactly like any other load or store — spilling is how
// over-eager promotion loses (§5, water).
func insertSpills(fn *ir.Func, spills []ir.Reg, g *graph, tags ir.TagAlloc) Stats {
	var stats Stats
	find := g.find

	// Spilled representatives, as a set.
	spillSet := newBitset(g.n)
	for _, r := range spills {
		spillSet.add(r)
	}

	// A spilled class whose only definition is a rematerializable
	// instruction gets no slot: each use re-issues the definition.
	// One walk over the registers totals each spilled class's
	// definitions and finds its rematerializable one.
	nDefs := make(map[ir.Reg]int, len(spills))
	rematDef := make(map[ir.Reg]*ir.Instr, len(spills))
	for r := ir.Reg(0); int(r) < g.n; r++ {
		rep := find(r)
		if !spillSet.has(rep) {
			continue
		}
		nDefs[rep] += g.defs[r]
		if d := g.remat[r]; d != nil {
			rematDef[rep] = d
		}
	}
	remat := make(map[ir.Reg]ir.Instr, len(rematDef))
	for rep, d := range rematDef {
		if nDefs[rep] == 1 {
			remat[rep] = *d
		}
	}

	// Per spilled (non-remat) class, a frame slot.
	slot := make(map[ir.Reg]ir.TagID, len(spills))
	for _, r := range spills {
		if _, isRemat := remat[r]; isRemat {
			continue
		}
		tag := tags.NewTag(
			fmt.Sprintf("%s.spill#%d", fn.Name, len(fn.Locals)),
			ir.TagSpill, fn.Name, 8, 8)
		tag.Strong = true
		slot[r] = tag.ID
		fn.Locals = append(fn.Locals, tag.ID)
	}
	stats.Spilled = len(spills)

	// loaded pairs each spilled class an instruction reads with the
	// temporary that carries it, so an instruction reading a class
	// twice loads it once.
	var loaded [][2]ir.Reg
	// The caller passes the representative registers of a coalesced
	// graph together with its find function, so member registers of
	// a spilled class resolve to the class slot.
	spilled := func(r ir.Reg) bool { return spillSet.has(find(r)) }
	var uses []ir.Reg
	touches := func(in *ir.Instr) bool {
		if d := in.Def(); d != ir.RegInvalid && spilled(d) {
			return true
		}
		uses = in.Uses(uses[:0])
		for _, u := range uses {
			if spilled(u) {
				return true
			}
		}
		return false
	}
	// A block that neither reads nor defines a spilled class keeps its
	// instructions; the others are rebuilt in out, which every block
	// reuses, and stored as an exact-size copy.
	var out []ir.Instr
	for _, b := range fn.Blocks {
		first := 0
		for first < len(b.Instrs) && !touches(&b.Instrs[first]) {
			first++
		}
		if first == len(b.Instrs) {
			continue
		}
		out = append(out[:0], b.Instrs[:first]...)
		for i := first; i < len(b.Instrs); i++ {
			in := b.Instrs[i]

			// Loads (or rematerializations) for spilled uses.
			loaded = loaded[:0]
			in.MapUses(func(u ir.Reg) ir.Reg {
				if !spilled(u) {
					return u
				}
				rep := find(u)
				for _, l := range loaded {
					if l[0] == rep {
						return l[1]
					}
				}
				t := fn.NewReg()
				if def, isRemat := remat[rep]; isRemat {
					def.Dst = t
					out = append(out, def)
				} else {
					out = append(out, ir.Instr{Op: ir.OpSLoad, Dst: t, Tag: slot[rep], Size: 8})
					stats.SpillLoads++
				}
				loaded = append(loaded, [2]ir.Reg{rep, t})
				return t
			})

			// Store after a spilled definition. A rematerialized
			// class deletes its definition instead: every use has
			// been replaced by a re-issued copy, so the original
			// (pure, operand-free) instruction is dead — keeping it
			// would preserve the very live range that failed to
			// color, and the allocator would pick it again forever.
			if d := in.Def(); d != ir.RegInvalid && spilled(d) {
				rep := find(d)
				if _, isRemat := remat[rep]; isRemat {
					continue
				}
				t := fn.NewReg()
				in.Dst = t
				out = append(out, in)
				out = append(out, ir.Instr{Op: ir.OpSStore, A: t, Tag: slot[rep], Size: 8})
				stats.SpillStores++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = make([]ir.Instr, len(out))
		copy(b.Instrs, out)
	}

	// A spilled parameter receives its argument in the register at
	// entry; store it to the slot immediately. (Parameters are never
	// rematerializable: their definition is the call itself.)
	var entryStores []ir.Instr
	for _, p := range fn.Params {
		rep := find(p)
		if spillSet.has(rep) {
			if _, isRemat := remat[rep]; isRemat {
				continue
			}
			entryStores = append(entryStores, ir.Instr{Op: ir.OpSStore, A: p, Tag: slot[rep], Size: 8})
			stats.SpillStores++
		}
	}
	if len(entryStores) > 0 {
		fn.Entry.Instrs = append(entryStores, fn.Entry.Instrs...)
	}
	return stats
}
