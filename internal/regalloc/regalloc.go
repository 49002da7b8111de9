package regalloc

import (
	"fmt"
	"math/bits"

	"regpromo/internal/cfg"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
)

// DefaultK is the physical register count used by the experiments,
// matching a generous RISC integer file.
const DefaultK = 32

// Options configure allocation.
type Options struct {
	// K is the number of physical registers (DefaultK when 0).
	K int
}

// Stats reports allocation activity.
type Stats struct {
	// Spilled counts virtual registers sent to memory.
	Spilled int
	// SpillLoads and SpillStores count the static spill operations
	// inserted.
	SpillLoads  int
	SpillStores int
	// Coalesced counts copies eliminated by coalescing (including
	// copies whose ends happened to receive one color).
	Coalesced int
	// Rounds is the number of build–color iterations used.
	Rounds int
	// MaxLive is the largest live set observed at any block boundary
	// while building the interference graph — the register-pressure
	// figure promotion policies are judged against.
	MaxLive int
}

// Add folds per-function stats into a module total. Counters sum;
// Rounds and MaxLive take the worst function — max is commutative, so
// parallel per-function allocation folds to the same module totals as
// a serial sweep.
func (s *Stats) Add(o Stats) {
	s.Spilled += o.Spilled
	s.SpillLoads += o.SpillLoads
	s.SpillStores += o.SpillStores
	s.Coalesced += o.Coalesced
	if o.Rounds > s.Rounds {
		s.Rounds = o.Rounds
	}
	if o.MaxLive > s.MaxLive {
		s.MaxLive = o.MaxLive
	}
}

// ParamsError reports a function with more parameters than physical
// registers. Parameters are live together at entry and are never
// merged with one another, so they form a clique that no spilling can
// shrink: allocation cannot succeed with fewer than Params registers.
type ParamsError struct {
	Func   string
	Params int
	K      int
}

func (e *ParamsError) Error() string {
	return fmt.Sprintf("regalloc: %s has %d parameters, more than K=%d registers (parameters are all live at entry)",
		e.Func, e.Params, e.K)
}

// Run allocates registers for every function.
func Run(m *ir.Module, opts Options) (Stats, error) {
	var total Stats
	for _, fn := range m.FuncsInOrder() {
		st, err := Func(fn, opts, &m.Tags)
		if err != nil {
			return total, err
		}
		total.Add(st)
	}
	return total, nil
}

// graph is the interference graph with coalescing union-find.
//
// Adjacency is a dense bit matrix: row r holds one bit per interfering
// register. The rows are kept clean — they only ever contain current
// union-find representatives, because every merge eagerly rewrites the
// rows that mention the dying node — and deg[r] is kept equal to the
// popcount of row r by every edge insertion and merge, so a degree
// query is one load. The matrix is symmetric and holds only registers
// that occur in the function, which lets color simplify on it directly.
type graph struct {
	n     int
	adj   []bitset // lazily allocated rows, each n bits
	deg   []int    // deg[r] = popcount(adj[r]) for every representative
	alias []ir.Reg // union-find parent (self when representative)
	moves [][2]ir.Reg
	cost  []float64
	// isParam marks registers that receive arguments at entry.
	isParam []bool
	// maxLive is the largest live set seen at a block boundary during
	// construction (register pressure).
	maxLive int
	// remat[r] points at r's definition in fn's blocks when that
	// definition can be recomputed anywhere (constants and address
	// materializations; the last one if r has several), nil
	// otherwise. Spilling a single-definition class re-issues the
	// definition at each use instead of going through memory
	// (Briggs-style rematerialization). The pointers stay valid until
	// insertSpills rewrites the blocks.
	remat []*ir.Instr
	// defs counts definitions per register.
	defs []int
}

func (g *graph) find(r ir.Reg) ir.Reg {
	for g.alias[r] != r {
		g.alias[r] = g.alias[g.alias[r]]
		r = g.alias[r]
	}
	return r
}

func (g *graph) interferes(a, b ir.Reg) bool {
	a, b = g.find(a), g.find(b)
	if a == b {
		return false
	}
	return g.adj[a] != nil && g.adj[a].has(b)
}

func (g *graph) row(r ir.Reg) bitset {
	if g.adj[r] == nil {
		g.adj[r] = newBitset(g.n)
	}
	return g.adj[r]
}

func (g *graph) addEdge(a, b ir.Reg) {
	a, b = g.find(a), g.find(b)
	if a == b {
		return
	}
	ra := g.row(a)
	if ra.has(b) {
		return
	}
	ra.add(b)
	g.row(b).add(a)
	g.deg[a]++
	g.deg[b]++
}

// addEdges makes d interfere with every member of live except itself.
// It is for construction only, before any merge, while every register
// is its own representative.
func (g *graph) addEdges(d ir.Reg, live bitset) {
	var drow bitset
	for i, w := range live {
		if i == int(d)/64 {
			w &^= 1 << (uint(d) % 64)
		}
		if w == 0 {
			continue
		}
		if drow == nil {
			drow = g.row(d)
		}
		w &^= drow[i]
		drow[i] |= w
		g.deg[d] += bits.OnesCount64(w)
		for w != 0 {
			r := ir.Reg(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
			g.row(r).add(d)
			g.deg[r]++
		}
	}
}

// Func allocates registers for one function. Spill slots are created
// through tags, which is the module tag table in a serial compile and
// a per-function staging allocator under the parallel middle-end.
func Func(fn *ir.Func, opts Options, tags ir.TagAlloc) (Stats, error) {
	k := opts.K
	if k <= 0 {
		k = DefaultK
	}
	if len(fn.Params) > k {
		return Stats{}, &ParamsError{Func: fn.Name, Params: len(fn.Params), K: k}
	}
	var stats Stats
	// Registers created by earlier spill rounds must not spill again:
	// re-spilling a reload temporary shuffles the value through yet
	// another slot without reducing pressure, and the allocator would
	// never converge. Spilling is reserved for original live ranges,
	// which are exactly the registers numbered below firstTemp.
	firstTemp := ir.Reg(fn.NumRegs)
	// Spilling rewrites instructions but never the CFG, so the loop
	// weights hold for every round.
	weights := blockWeights(fn)
	for round := 0; ; round++ {
		if round > 100 {
			return stats, fmt.Errorf("regalloc: %s did not converge after %d rounds (K=%d)", fn.Name, round, k)
		}
		stats.Rounds = round + 1
		g := build(fn, weights)
		if g.maxLive > stats.MaxLive {
			stats.MaxLive = g.maxLive
		}
		stats.Coalesced += coalesce(g, k)
		colors, spills := color(g, fn, k, firstTemp)
		if len(spills) == 0 {
			stats.Coalesced += rewrite(fn, g, colors)
			fn.Allocated = true
			if r := obs.Metrics(); r != nil {
				r.Counter("regalloc.funcs").Inc()
				r.Counter("regalloc.spilled").Add(int64(stats.Spilled))
				r.Counter("regalloc.coalesced").Add(int64(stats.Coalesced))
				r.Gauge("regalloc.max_live").SetMax(int64(stats.MaxLive))
				r.Histogram("regalloc.rounds", obs.SizeBuckets).Observe(int64(stats.Rounds))
			}
			return stats, nil
		}
		st := insertSpills(fn, spills, g, tags)
		stats.Spilled += len(spills)
		stats.SpillLoads += st.SpillLoads
		stats.SpillStores += st.SpillStores
	}
}

// blockWeights drops unreachable blocks and returns each block's
// spill-cost weight, 10 per enclosing loop (capped near 1e6), indexed
// by block ID. Loop discovery must not mutate the CFG here because the
// liveness arrays are indexed by block id.
func blockWeights(fn *ir.Func) []float64 {
	fn.RemoveUnreachable()
	forest := cfg.FindLoops(fn, cfg.Dominators(fn))
	weights := make([]float64, len(fn.Blocks))
	for _, b := range fn.Blocks {
		weight := 1.0
		for d := forest.Depth(b); d > 0 && weight < 1e6; d-- {
			weight *= 10
		}
		weights[b.ID] = weight
	}
	return weights
}

// build constructs the interference graph; weights are the per-block
// spill-cost weights from blockWeights.
func build(fn *ir.Func, weights []float64) *graph {
	lv := computeLiveness(fn)
	g := &graph{
		n:       fn.NumRegs,
		adj:     make([]bitset, fn.NumRegs),
		deg:     make([]int, fn.NumRegs),
		alias:   make([]ir.Reg, fn.NumRegs),
		cost:    make([]float64, fn.NumRegs),
		isParam: make([]bool, fn.NumRegs),
	}
	for i := range g.alias {
		g.alias[i] = ir.Reg(i)
	}
	for _, p := range fn.Params {
		g.isParam[p] = true
	}
	g.remat = make([]*ir.Instr, fn.NumRegs)
	g.defs = make([]int, fn.NumRegs)
	// Parameters carry an implicit entry definition, so an in-body
	// constant assignment to one is never rematerializable.
	for _, p := range fn.Params {
		g.defs[p]++
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			d := in.Def()
			if d == ir.RegInvalid {
				continue
			}
			g.defs[d]++
			switch in.Op {
			case ir.OpLoadI, ir.OpLoadF, ir.OpAddrOf:
				g.remat[d] = in
			}
		}
	}

	var buf [8]ir.Reg
	for _, b := range fn.Blocks {
		weight := weights[b.ID]
		live := lv.liveOut[b.ID].clone()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			d := in.Def()
			if in.Op == ir.OpCopy {
				g.moves = append(g.moves, [2]ir.Reg{in.Dst, in.A})
				// The copy's source does not interfere with its
				// destination through this def.
				live.del(in.A)
			}
			if d != ir.RegInvalid {
				g.cost[d] += weight
				g.addEdges(d, live)
				live.del(d)
			}
			for _, u := range in.Uses(buf[:0]) {
				g.cost[u] += weight
				live.add(u)
			}
		}
		if n := live.count(); n > g.maxLive {
			g.maxLive = n
		}
		if b == fn.Entry {
			// Everything live into the entry is defined "at once" by
			// the calling convention (parameters) or reads its zero
			// value; give them mutual edges so they get distinct
			// homes.
			var entryLive []ir.Reg
			live.forEach(func(r ir.Reg) { entryLive = append(entryLive, r) })
			for _, p := range fn.Params {
				entryLive = append(entryLive, p)
			}
			for i := 0; i < len(entryLive); i++ {
				for j := i + 1; j < len(entryLive); j++ {
					if entryLive[i] != entryLive[j] {
						g.addEdge(entryLive[i], entryLive[j])
					}
				}
			}
		}
	}
	// Rematerializable values are nearly free to "spill": bias the
	// allocator toward choosing them under pressure.
	for r, n := range g.defs {
		if n == 1 && g.remat[r] != nil {
			g.cost[r] *= 0.01
		}
	}
	return g
}

// canCoalesce applies the Briggs test (combined node has fewer than K
// neighbors of significant degree) and falls back to the George test
// (every neighbor of b either already interferes with a or is
// insignificant), either of which guarantees coalescing cannot turn a
// colorable graph uncolorable.
func (g *graph) canCoalesce(a, b ir.Reg, k int) bool {
	// Briggs, over the union of both neighborhoods.
	high := 0
	ra, rb := g.adj[a], g.adj[b]
	nw := 0
	if ra != nil {
		nw = len(ra)
	}
	if rb != nil && len(rb) > nw {
		nw = len(rb)
	}
	for i := 0; i < nw; i++ {
		var w uint64
		if ra != nil {
			w = ra[i]
		}
		if rb != nil {
			w |= rb[i]
		}
		for w != 0 {
			r := ir.Reg(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
			if r == a || r == b {
				continue
			}
			if g.deg[r] >= k {
				high++
			}
		}
	}
	if high < k {
		return true
	}
	// George, both orientations.
	george := func(x, y ir.Reg) bool {
		ok := true
		if g.adj[y] == nil {
			return true
		}
		xrow := g.adj[x]
		g.adj[y].forEach(func(r ir.Reg) {
			if !ok || r == x {
				return
			}
			if g.deg[r] < k || (xrow != nil && xrow.has(r)) {
				return
			}
			ok = false
		})
		return ok
	}
	return george(a, b) || george(b, a)
}

// coalesce merges non-interfering move ends when a conservative test
// (Briggs or George) proves the merge safe.
func coalesce(g *graph, k int) int {
	merged := 0
	for changed := true; changed; {
		changed = false
		for _, mv := range g.moves {
			a, b := g.find(mv[0]), g.find(mv[1])
			if a == b {
				continue
			}
			if g.interferes(a, b) {
				continue
			}
			// Never merge two parameter registers: each receives a
			// distinct argument at entry.
			if g.isParam[a] && g.isParam[b] {
				continue
			}
			if !g.canCoalesce(a, b, k) {
				continue
			}
			// Merge b into a, eagerly rewriting every row that
			// mentions b so rows keep holding representatives only.
			// a and b do not interfere, so neither row holds the
			// other and every neighbour r of b loses b: it keeps its
			// degree when it already neighboured a, and otherwise
			// trades b for a while a gains r.
			g.alias[b] = a
			arow := g.row(a)
			if g.adj[b] != nil {
				g.adj[b].forEach(func(r ir.Reg) {
					g.adj[r].del(b)
					if arow.has(r) {
						g.deg[r]--
						return
					}
					arow.add(r)
					g.adj[r].add(a)
					g.deg[a]++
				})
				g.adj[b] = nil
				g.deg[b] = 0
			}
			g.isParam[a] = g.isParam[a] || g.isParam[b]
			g.cost[a] += g.cost[b]
			merged++
			changed = true
		}
	}
	return merged
}

// color runs simplify/select with optimistic spilling; it returns the
// color assignment (indexed by representative, -1 = spilled/absent)
// and the registers that must spill.
func color(g *graph, fn *ir.Func, k int, firstTemp ir.Reg) ([]int, []ir.Reg) {
	stack := simplify(g, usedReps(g, fn), k, firstTemp)

	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	used := make([]bool, k)
	var spills []ir.Reg
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		for j := range used {
			used[j] = false
		}
		g.adj[r].forEach(func(n ir.Reg) {
			if c := colors[n]; c >= 0 {
				used[c] = true
			}
		})
		c := -1
		for j := 0; j < k; j++ {
			if !used[j] {
				c = j
				break
			}
		}
		if c == -1 {
			spills = append(spills, r)
			continue
		}
		colors[r] = c
	}
	return colors, spills
}

// usedReps returns, in ascending order, the representatives of every
// register the function reads or writes, parameters included: the
// nodes to color.
func usedReps(g *graph, fn *ir.Func) []ir.Reg {
	reps := newBitset(g.n)
	var buf [8]ir.Reg
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.RegInvalid {
				reps.add(g.find(d))
			}
			for _, u := range in.Uses(buf[:0]) {
				reps.add(g.find(u))
			}
		}
	}
	for _, p := range fn.Params {
		reps.add(g.find(p))
	}
	var repList []ir.Reg
	reps.forEach(func(r ir.Reg) { repList = append(repList, r) })
	return repList
}

// simplify orders the nodes of repList for coloring and returns them
// as a stack (the last element is colored first). It repeatedly
// removes the lowest-numbered node of degree below k; when none is
// left it removes the cheapest spill candidate, optimistically. Classes
// containing a register numbered firstTemp or above (a temporary of an
// earlier spill round) are chosen as spill candidates only when
// nothing else is available.
func simplify(g *graph, repList []ir.Reg, k int, firstTemp ir.Reg) []ir.Reg {
	noSpillRep := newBitset(g.n)
	for r := firstTemp; int(r) < g.n; r++ {
		noSpillRep.add(g.find(r))
	}
	// Every edge joins registers that occur in the function, so the
	// graph's rows already lie within repList and simplify works on
	// them directly, with a private copy of the degrees. low holds the
	// remaining nodes of degree below k.
	deg := append([]int(nil), g.deg...)
	low := newBitset(g.n)
	for _, r := range repList {
		if deg[r] < k {
			low.add(r)
		}
	}
	removed := newBitset(g.n)
	stack := make([]ir.Reg, 0, len(repList))
	for len(stack) < len(repList) {
		pick, ok := low.first()
		if ok {
			low.del(pick)
		} else {
			pick = spillCandidate(g, repList, removed, deg, noSpillRep)
		}
		removed.add(pick)
		stack = append(stack, pick)
		g.adj[pick].forEach(func(n ir.Reg) {
			if !removed.has(n) {
				deg[n]--
				if deg[n] == k-1 {
					low.add(n)
				}
			}
		})
	}
	return stack
}

// spillCandidate returns the remaining node with the lowest spill cost
// per unit of degree, the lowest-numbered on ties, preferring classes
// outside noSpillRep.
func spillCandidate(g *graph, repList []ir.Reg, removed bitset, deg []int, noSpillRep bitset) ir.Reg {
	pickSpill, pickLast := ir.RegInvalid, ir.RegInvalid
	bestCost, lastCost := 0.0, 0.0
	for _, r := range repList {
		if removed.has(r) {
			continue
		}
		c := g.cost[r] / float64(deg[r]+1)
		if noSpillRep.has(r) {
			if pickLast == ir.RegInvalid || c < lastCost {
				pickLast, lastCost = r, c
			}
			continue
		}
		if pickSpill == ir.RegInvalid || c < bestCost {
			pickSpill, bestCost = r, c
		}
	}
	if pickSpill != ir.RegInvalid {
		return pickSpill
	}
	return pickLast
}

// rewrite renames every register to its color and drops copies whose
// ends received the same color. It returns the number of copies
// removed.
func rewrite(fn *ir.Func, g *graph, colors []int) int {
	rename := func(r ir.Reg) ir.Reg {
		if r == ir.RegInvalid {
			return r
		}
		c := colors[g.find(r)]
		if c < 0 {
			// Dead register (never used): park it in color 0.
			return 0
		}
		return ir.Reg(c)
	}
	removedCopies := 0
	maxColor := 0
	for _, c := range colors {
		if c > maxColor {
			maxColor = c
		}
	}
	for _, b := range fn.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			// Uses first, positionally: renaming by value would
			// collide once colors overlap old virtual numbers.
			in.MapUses(rename)
			if d := in.Def(); d != ir.RegInvalid {
				in.Dst = rename(d)
			}
			if in.Op == ir.OpCopy && in.Dst == in.A {
				removedCopies++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	for i, p := range fn.Params {
		fn.Params[i] = rename(p)
	}
	fn.NumRegs = maxColor + 1
	return removedCopies
}
