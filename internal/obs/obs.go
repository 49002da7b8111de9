// Package obs is the compiler's observability layer. A Pipeline
// observes the pass manager (internal/driver): for every pass it
// records wall-clock duration, static IR snapshots taken before and
// after (function/block/instruction counts plus the Table-1 memory-op
// census: immediate and constant loads, scalar ("tagged") loads and
// stores, and general pointer-based loads and stores), pass-specific
// statistics folded into a flat key/value map, and — on request — a
// full IL dump. The event stream serializes to JSON (`rpcc -json`).
//
// The paper's evaluation (§5) is measurement end to end; this package
// makes the pipeline itself measurable, pass by pass.
package obs

import (
	"encoding/json"
	"io"
	"time"

	"regpromo/internal/ir"
)

// MemOps is a static census of memory operations by Table-1 class.
type MemOps struct {
	// ImmLoads counts loadI/loadF immediate loads.
	ImmLoads int `json:"imm_loads"`
	// ConstLoads counts cLoad constant (invariant-value) loads.
	ConstLoads int `json:"const_loads"`
	// ScalarLoads and ScalarStores count the direct, single-tag
	// sLoad/sStore operations ("tagged" memory traffic — the class
	// promotion rewrites into register copies).
	ScalarLoads  int `json:"scalar_loads"`
	ScalarStores int `json:"scalar_stores"`
	// PtrLoads and PtrStores count the general pointer-based
	// pLoad/pStore operations with computed addresses.
	PtrLoads  int `json:"ptr_loads"`
	PtrStores int `json:"ptr_stores"`
}

// Loads is the total static load count across classes (immediate
// loads excluded: they touch no memory).
func (m MemOps) Loads() int { return m.ConstLoads + m.ScalarLoads + m.PtrLoads }

// Stores is the total static store count across classes.
func (m MemOps) Stores() int { return m.ScalarStores + m.PtrStores }

func (m MemOps) add(o MemOps) MemOps {
	return MemOps{
		ImmLoads:     m.ImmLoads + o.ImmLoads,
		ConstLoads:   m.ConstLoads + o.ConstLoads,
		ScalarLoads:  m.ScalarLoads + o.ScalarLoads,
		ScalarStores: m.ScalarStores + o.ScalarStores,
		PtrLoads:     m.PtrLoads + o.PtrLoads,
		PtrStores:    m.PtrStores + o.PtrStores,
	}
}

func (m MemOps) sub(o MemOps) MemOps {
	return MemOps{
		ImmLoads:     m.ImmLoads - o.ImmLoads,
		ConstLoads:   m.ConstLoads - o.ConstLoads,
		ScalarLoads:  m.ScalarLoads - o.ScalarLoads,
		ScalarStores: m.ScalarStores - o.ScalarStores,
		PtrLoads:     m.PtrLoads - o.PtrLoads,
		PtrStores:    m.PtrStores - o.PtrStores,
	}
}

// Snapshot is a static picture of a module at one pipeline point.
type Snapshot struct {
	Funcs  int `json:"funcs"`
	Blocks int `json:"blocks"`
	Instrs int `json:"instrs"`
	// Mem is the whole-module memory-op census.
	Mem MemOps `json:"mem"`
	// Loop restricts the census to blocks that lie on a CFG cycle.
	// Promotion's effect shows up here: it moves scalar references
	// out of loops, so in-loop tagged traffic drops even when the
	// lifted load/store pair keeps the module-wide totals flat.
	Loop MemOps `json:"loop"`
}

// Add returns the fieldwise sum s + o. Module snapshots decompose
// over functions: summing MeasureFunc over a module's functions gives
// exactly Measure of the module, which is what lets the parallel
// middle end assemble whole-module telemetry from per-function pieces.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Funcs:  s.Funcs + o.Funcs,
		Blocks: s.Blocks + o.Blocks,
		Instrs: s.Instrs + o.Instrs,
		Mem:    s.Mem.add(o.Mem),
		Loop:   s.Loop.add(o.Loop),
	}
}

// Sub returns the fieldwise difference s - o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Funcs:  s.Funcs - o.Funcs,
		Blocks: s.Blocks - o.Blocks,
		Instrs: s.Instrs - o.Instrs,
		Mem:    s.Mem.sub(o.Mem),
		Loop:   s.Loop.sub(o.Loop),
	}
}

// Measure walks the module and produces its snapshot.
func Measure(m *ir.Module) Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	for _, fn := range m.FuncsInOrder() {
		s = s.Add(MeasureFunc(fn))
	}
	return s
}

// MeasureFunc produces the snapshot of a single function (Funcs is 1).
// Measure is the sum of MeasureFunc over FuncsInOrder, exactly.
func MeasureFunc(fn *ir.Func) Snapshot {
	s := Snapshot{Funcs: 1}
	inLoop := cyclicBlocks(fn)
	for _, b := range fn.Blocks {
		s.Blocks++
		s.Instrs += len(b.Instrs)
		census(b.Instrs, &s.Mem)
		if inLoop[b] {
			census(b.Instrs, &s.Loop)
		}
	}
	return s
}

// census tallies instrs into ops by Table-1 class.
func census(instrs []ir.Instr, ops *MemOps) {
	for i := range instrs {
		switch instrs[i].Op {
		case ir.OpLoadI, ir.OpLoadF:
			ops.ImmLoads++
		case ir.OpCLoad:
			ops.ConstLoads++
		case ir.OpSLoad:
			ops.ScalarLoads++
		case ir.OpSStore:
			ops.ScalarStores++
		case ir.OpPLoad:
			ops.PtrLoads++
		case ir.OpPStore:
			ops.PtrStores++
		}
	}
}

// cyclicBlocks returns the blocks of fn that belong to some CFG cycle
// (a strongly connected component of size > 1, or a self-loop) —
// a conservative, analysis-free notion of "inside a loop".
func cyclicBlocks(fn *ir.Func) map[*ir.Block]bool {
	// Iterative Tarjan SCC over the block graph.
	index := make(map[*ir.Block]int, len(fn.Blocks))
	low := make(map[*ir.Block]int, len(fn.Blocks))
	onStack := make(map[*ir.Block]bool, len(fn.Blocks))
	var stack []*ir.Block
	next := 0
	out := make(map[*ir.Block]bool)

	type frame struct {
		b *ir.Block
		i int // next successor to visit
	}
	for _, root := range fn.Blocks {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{b: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.i < len(f.b.Succs) {
				s := f.b.Succs[f.i]
				f.i++
				if _, seen := index[s]; !seen {
					index[s], low[s] = next, next
					next++
					stack = append(stack, s)
					onStack[s] = true
					work = append(work, frame{b: s})
				} else if onStack[s] && index[s] < low[f.b] {
					low[f.b] = index[s]
				}
				continue
			}
			// f.b is finished; pop its SCC if it is a root.
			if low[f.b] == index[f.b] {
				var scc []*ir.Block
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == f.b {
						break
					}
				}
				cyclic := len(scc) > 1
				if !cyclic {
					for _, s := range scc[0].Succs {
						if s == scc[0] {
							cyclic = true
						}
					}
				}
				if cyclic {
					for _, b := range scc {
						out[b] = true
					}
				}
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].b
				if low[f.b] < low[parent] {
					low[parent] = low[f.b]
				}
			}
		}
	}
	return out
}

// PassEvent is one pass's record in the event stream.
type PassEvent struct {
	// Index is the pass's position in the pipeline, from 0.
	Index int `json:"index"`
	// Name identifies the pass ("promote", "regalloc", …).
	Name string `json:"name"`
	// DurationNS is the pass's wall-clock time in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Before and After are the static IR snapshots bracketing the
	// pass.
	Before Snapshot `json:"before"`
	After  Snapshot `json:"after"`
	// Extra carries pass-specific statistics (promotion and
	// allocation counters, fold into the same stream here).
	Extra map[string]int64 `json:"extra,omitempty"`
	// IRDump is the post-pass IL listing when dumping was requested.
	IRDump string `json:"ir_dump,omitempty"`
}

// Delta returns After - Before.
func (e *PassEvent) Delta() Snapshot { return e.After.Sub(e.Before) }

// Duration returns the recorded wall-clock time.
func (e *PassEvent) Duration() time.Duration { return time.Duration(e.DurationNS) }

// DumpAll requests an IR dump after every pass.
const DumpAll = "all"

// Pipeline collects pass events for one compilation. A nil *Pipeline
// is a valid no-op observer, so unobserved compiles pay nothing.
type Pipeline struct {
	// DumpPass names the pass whose output IL should be captured
	// into its event ("all" captures every pass).
	DumpPass string

	// Tracer, when non-nil, receives a hierarchical span for each
	// observed pass (and whatever the driver nests inside them);
	// nil keeps the pipeline span-free at zero cost.
	Tracer *Tracer

	// Events accumulate in pipeline order.
	Events []*PassEvent
}

// StartSpan opens a span on the pipeline's tracer; with a nil
// pipeline or nil tracer it returns a no-op zero Span.
func (p *Pipeline) StartSpan(name, cat string, tid int) Span {
	if p == nil {
		return Span{}
	}
	return p.Tracer.Start(name, cat, tid)
}

// Observe runs one pass under observation: it snapshots m, times run,
// snapshots again, and appends the event. run returns the pass's
// extra statistics (may be nil). A nil receiver just runs the pass.
func (p *Pipeline) Observe(name string, m *ir.Module, run func() (map[string]int64, error)) error {
	if p == nil {
		_, err := run()
		return err
	}
	ev := &PassEvent{
		Index:  len(p.Events),
		Name:   name,
		Before: Measure(m),
	}
	sp := p.Tracer.Start(name, "pass", 0)
	start := time.Now()
	extra, err := run()
	ev.DurationNS = time.Since(start).Nanoseconds()
	sp.AddArgs(extra).End()
	if err != nil {
		return err
	}
	ev.After = Measure(m)
	ev.Extra = extra
	recordPassMetrics(ev.DurationNS)
	if m != nil && (p.DumpPass == DumpAll || p.DumpPass == name) {
		ev.IRDump = ir.FormatModule(m)
	}
	p.Events = append(p.Events, ev)
	return nil
}

// recordPassMetrics reports one pass completion to the process-wide
// registry (no-op while metrics are disabled).
func recordPassMetrics(durNS int64) {
	r := Metrics()
	if r == nil {
		return
	}
	r.Counter("compile.passes").Inc()
	r.Histogram("compile.pass_ns", DurationBucketsNS).Observe(durNS)
}

// Append adds a pre-assembled event to the stream, assigning its
// Index. The driver's parallel middle end builds events by merging
// per-function measurements in function order and emits them here,
// through the same stream Observe feeds. A nil receiver discards the
// event.
func (p *Pipeline) Append(ev *PassEvent) {
	if p == nil || ev == nil {
		return
	}
	ev.Index = len(p.Events)
	p.Events = append(p.Events, ev)
	recordPassMetrics(ev.DurationNS)
}

// Event returns the first event with the given pass name, or nil.
func (p *Pipeline) Event(name string) *PassEvent {
	if p == nil {
		return nil
	}
	for _, e := range p.Events {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// PassNames lists the recorded passes in order.
func (p *Pipeline) PassNames() []string {
	if p == nil {
		return nil
	}
	names := make([]string, len(p.Events))
	for i, e := range p.Events {
		names[i] = e.Name
	}
	return names
}

// Total sums the recorded pass durations.
func (p *Pipeline) Total() time.Duration {
	if p == nil {
		return 0
	}
	var ns int64
	for _, e := range p.Events {
		ns += e.DurationNS
	}
	return time.Duration(ns)
}

// WriteJSON emits the event stream as indented JSON.
func (p *Pipeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Events)
}
