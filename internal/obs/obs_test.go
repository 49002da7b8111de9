package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"regpromo/internal/ir"
)

// testModule builds a one-function module with a known instruction
// census: 2 immediate loads, 1 scalar load, 1 scalar store, 1 pointer
// load, 1 pointer store, 1 constant load, and a return.
func testModule() *ir.Module {
	m := ir.NewModule()
	g := m.Tags.NewTag("g", ir.TagGlobal, "", 8, 8)
	fn := &ir.Func{Name: "main", NumRegs: 4}
	b := fn.NewBlock("B0")
	fn.Entry = b
	b.Instrs = []ir.Instr{
		{Op: ir.OpLoadI, Dst: 0, Imm: 1},
		{Op: ir.OpLoadF, Dst: 1, FImm: 2.5},
		{Op: ir.OpSLoad, Dst: 2, Tag: g.ID, Size: 8},
		{Op: ir.OpSStore, A: 2, Tag: g.ID, Size: 8},
		{Op: ir.OpCLoad, Dst: 3, Tag: g.ID, Size: 8},
		{Op: ir.OpPLoad, Dst: 2, A: 0, Size: 8, Tags: ir.NewTagSet(g.ID)},
		{Op: ir.OpPStore, A: 0, B: 2, Size: 8, Tags: ir.NewTagSet(g.ID)},
		{Op: ir.OpRet},
	}
	m.AddFunc(fn)
	return m
}

func TestMeasureCensus(t *testing.T) {
	s := Measure(testModule())
	want := Snapshot{
		Funcs:  1,
		Blocks: 1,
		Instrs: 8,
		Mem: MemOps{
			ImmLoads:     2,
			ConstLoads:   1,
			ScalarLoads:  1,
			ScalarStores: 1,
			PtrLoads:     1,
			PtrStores:    1,
		},
	}
	if s != want {
		t.Fatalf("Measure = %+v, want %+v", s, want)
	}
	if got := s.Mem.Loads(); got != 3 {
		t.Errorf("Loads() = %d, want 3", got)
	}
	if got := s.Mem.Stores(); got != 2 {
		t.Errorf("Stores() = %d, want 2", got)
	}
}

// TestLoopCensus checks that memory ops in blocks on a CFG cycle are
// tallied into Snapshot.Loop, and straight-line ops are not.
func TestLoopCensus(t *testing.T) {
	m := ir.NewModule()
	g := m.Tags.NewTag("g", ir.TagGlobal, "", 8, 8)
	fn := &ir.Func{Name: "f", NumRegs: 2}
	entry := fn.NewBlock("entry")
	head := fn.NewBlock("head")
	body := fn.NewBlock("body")
	exit := fn.NewBlock("exit")
	fn.Entry = entry
	entry.Instrs = []ir.Instr{
		{Op: ir.OpSLoad, Dst: 0, Tag: g.ID, Size: 8}, // outside the loop
		{Op: ir.OpBr},
	}
	head.Instrs = []ir.Instr{{Op: ir.OpCBr, A: 0}}
	body.Instrs = []ir.Instr{
		{Op: ir.OpSLoad, Dst: 1, Tag: g.ID, Size: 8}, // in the loop
		{Op: ir.OpSStore, A: 1, Tag: g.ID, Size: 8},  // in the loop
		{Op: ir.OpBr},
	}
	exit.Instrs = []ir.Instr{{Op: ir.OpRet}}
	ir.AddEdge(entry, head)
	ir.AddEdge(head, body)
	ir.AddEdge(head, exit)
	ir.AddEdge(body, head)
	m.AddFunc(fn)

	s := Measure(m)
	if s.Mem.ScalarLoads != 2 || s.Mem.ScalarStores != 1 {
		t.Fatalf("module census wrong: %+v", s.Mem)
	}
	if s.Loop.ScalarLoads != 1 || s.Loop.ScalarStores != 1 {
		t.Fatalf("loop census wrong: %+v", s.Loop)
	}
}

// passSpan records one pass span on tr the way the driver does:
// snapshot, open, run, stop the clock, snapshot again.
func passSpan(tr *Tracer, name string, index, tid int, m *ir.Module, run func() map[string]int64) {
	before := Measure(m)
	sp := tr.Start(name, "pass", tid)
	extra := run()
	sp = sp.Stop().AddArgs(extra)
	sp.Pass(PassAttrs{Index: index, Before: before, After: Measure(m), IRDump: tr.DumpIR(name, m)}).End()
}

func TestPassSpanRecordsDeltaAndExtra(t *testing.T) {
	m := testModule()
	tr := newTracerClock(fakeClock(1000))
	passSpan(tr, "strip-stores", 0, 0, m, func() map[string]int64 {
		// Delete the scalar store, as promotion would.
		b := m.Funcs["main"].Entry
		var kept []ir.Instr
		for _, in := range b.Instrs {
			if in.Op != ir.OpSStore {
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
		return map[string]int64{"removed": 1}
	})
	rows := tr.Passes()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	e := rows[0]
	d := e.Delta()
	if d.Instrs != -1 || d.Mem.ScalarStores != -1 {
		t.Fatalf("delta = %+v, want Δinstrs=-1 ΔsStore=-1", d)
	}
	if d.Mem.ScalarLoads != 0 || d.Mem.PtrStores != 0 {
		t.Fatalf("unrelated classes moved: %+v", d)
	}
	if e.Extra["removed"] != 1 {
		t.Fatalf("extra = %v", e.Extra)
	}
	// The fake clock ticks once at Start and once at Stop; the second
	// snapshot, taken after Stop, is not billed to the pass.
	if e.DurationNS != 1000 {
		t.Fatalf("duration %d, want 1000", e.DurationNS)
	}
}

// TestPassViewNilTracerAndErrors checks the degenerate cases: a nil
// tracer has no rows, and spans without pass attributes (a pass that
// failed, the compile root, a middle-end work item) are not rows.
func TestPassViewNilTracerAndErrors(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Passes() != nil || nilTracer.DumpIR("x", testModule()) != "" {
		t.Fatal("nil tracer must have no rows and no dumps")
	}
	tr := NewTracer()
	tr.Start("compile", "compile", 0).End()
	tr.Start("bad", "pass", 0).Stop().Arg("n", 1).End()
	if rows := tr.Passes(); len(rows) != 0 {
		t.Fatalf("spans without pass attributes became rows: %+v", rows)
	}
}

// TestPassesFoldPerFunctionSpans checks the view over a per-function
// pass: two functions' spans on worker threads fold to the module
// snapshot and summed extras, and a summary span's totals replace the
// summed extras instead of adding to them.
func TestPassesFoldPerFunctionSpans(t *testing.T) {
	fnA := Snapshot{Funcs: 1, Blocks: 2, Instrs: 10, Mem: MemOps{ScalarLoads: 4}}
	fnB := Snapshot{Funcs: 1, Blocks: 3, Instrs: 20, Mem: MemOps{PtrStores: 1}}
	afterA, afterB := fnA, fnB
	afterA.Instrs -= 3
	afterB.Instrs -= 4
	tr := newTracerClock(fakeClock(1000))
	for _, f := range []struct {
		tid           int
		before, after Snapshot
		extra         map[string]int64
	}{
		{1, fnA, afterA, map[string]int64{"changed": 3, "max_live": 5}},
		{2, fnB, afterB, map[string]int64{"changed": 4, "max_live": 9}},
	} {
		tr.Start("regalloc", "pass", f.tid).AddArgs(f.extra).Stop().
			Pass(PassAttrs{Index: 1, Before: f.before, After: f.after}).End()
	}
	tr.Start("regalloc", "pass", 0).Arg("changed", 7).Arg("max_live", 9).
		Pass(PassAttrs{Index: 1, Summary: true}).End()
	tr.Start("clean", "pass", 0).Pass(PassAttrs{Index: 2, Summary: true}).End()

	rows := tr.Passes()
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Index != 1 || r.Name != "regalloc" {
		t.Fatalf("row = %d/%s, want 1/regalloc", r.Index, r.Name)
	}
	if r.Before != fnA.Add(fnB) || r.After != afterA.Add(afterB) {
		t.Errorf("snapshots %+v → %+v, want the module sums", r.Before, r.After)
	}
	if !reflect.DeepEqual(r.Extra, map[string]int64{"changed": 7, "max_live": 9}) {
		t.Errorf("extras = %v, want the summary's totals (max_live 9, not 14)", r.Extra)
	}
	if r.DurationNS != 2000 {
		t.Errorf("duration = %d, want the two per-function spans' 2000", r.DurationNS)
	}
	// A pass no function ran still has its row, from its summary.
	if rows[1].Name != "clean" || rows[1].Extra != nil {
		t.Errorf("row 2 = %+v", rows[1])
	}
	// Without a summary's totals, extras sum.
	tr = NewTracer()
	tr.Start("dce", "pass", 1).Arg("changed", 2).Pass(PassAttrs{Index: 0}).End()
	tr.Start("dce", "pass", 2).Arg("changed", 5).Pass(PassAttrs{Index: 0}).End()
	tr.Start("dce", "pass", 0).Pass(PassAttrs{Index: 0, Summary: true}).End()
	if got := tr.Passes()[0].Extra["changed"]; got != 7 {
		t.Errorf("summed changed = %d, want 7", got)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	m := testModule()
	tr := NewTracer()
	tr.DumpPass = DumpAll
	for i, name := range []string{"constprop", "promote"} {
		passSpan(tr, name, i, 0, m, func() map[string]int64 {
			return map[string]int64{"scalar_promotions": 2}
		})
	}
	rows := tr.Passes()
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []PassEvent
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", back[0], rows[0])
	}
	if back[1].IRDump == "" || !strings.Contains(back[1].IRDump, "func main") {
		t.Fatal("IR dump lost in round trip")
	}
	if back[0].Name != "constprop" || back[1].Name != "promote" {
		t.Fatalf("rows = %s, %s", back[0].Name, back[1].Name)
	}
}

func TestFormatTable(t *testing.T) {
	m := testModule()
	tr := NewTracer()
	passSpan(tr, "promote", 0, 0, m, func() map[string]int64 {
		return map[string]int64{"scalar_promotions": 1}
	})
	table := FormatTable(tr.Passes())
	for _, want := range []string{"pass", "promote", "ΔsStore", "scalar_promotions=1", "total"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
