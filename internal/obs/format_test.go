package obs

import (
	"strings"
	"testing"
)

// TestFormatTableEmpty checks the degenerate views: a nil tracer and
// a tracer that recorded no pass both render as the empty string
// (rpcc -trace prints nothing rather than a bare header).
func TestFormatTableEmpty(t *testing.T) {
	var nilTracer *Tracer
	if got := FormatTable(nilTracer.Passes()); got != "" {
		t.Errorf("nil tracer renders %q", got)
	}
	if got := FormatTable(NewTracer().Passes()); got != "" {
		t.Errorf("empty tracer renders %q", got)
	}
}

// TestFormatTableZeroDuration checks that instantaneous passes (a
// per-function pass no function ran folds to 0ns) render with an
// explicit 0µs, not garbage.
func TestFormatTableZeroDuration(t *testing.T) {
	snap := Snapshot{Funcs: 1, Blocks: 1, Instrs: 3}
	out := FormatTable([]PassEvent{{Name: "noop", DurationNS: 0, Before: snap, After: snap}})
	if !strings.Contains(out, "0µs") {
		t.Errorf("zero-duration pass missing 0µs:\n%s", out)
	}
	if !strings.Contains(out, "total 0µs") {
		t.Errorf("total line missing 0µs:\n%s", out)
	}
}

// TestFormatTableMergedSnapshots drives FormatTable with a row folded
// the way the parallel middle end records it: one pass span per
// function, each carrying that function's snapshots. The table's
// delta and final-state lines must reflect the merged sums.
func TestFormatTableMergedSnapshots(t *testing.T) {
	fnA := Snapshot{Funcs: 1, Blocks: 2, Instrs: 10, Mem: MemOps{ScalarLoads: 4, ScalarStores: 2}}
	fnB := Snapshot{Funcs: 1, Blocks: 3, Instrs: 20, Mem: MemOps{ScalarLoads: 6, PtrStores: 1}}
	// Promotion removes 3 scalar loads from A and 4 from B.
	afterA, afterB := fnA, fnB
	afterA.Mem.ScalarLoads -= 3
	afterA.Instrs -= 3
	afterB.Mem.ScalarLoads -= 4
	afterB.Instrs -= 4
	tr := NewTracer()
	tr.Start("promote", "pass", 1).Arg("promotions", 1).Pass(PassAttrs{Before: fnA, After: afterA}).End()
	tr.Start("promote", "pass", 2).Arg("promotions", 1).Pass(PassAttrs{Before: fnB, After: afterB}).End()
	out := FormatTable(tr.Passes())
	// Δinstr −7, ΔsLoad −7 from the merged snapshots.
	if !strings.Contains(out, "-7") {
		t.Errorf("merged delta missing:\n%s", out)
	}
	if !strings.Contains(out, "funcs=2 blocks=5 instrs=23") {
		t.Errorf("final merged totals wrong:\n%s", out)
	}
	if !strings.Contains(out, "sLoad=3") {
		t.Errorf("final merged scalar loads wrong:\n%s", out)
	}
	if !strings.Contains(out, "promotions=2") {
		t.Errorf("extra line missing:\n%s", out)
	}
}
