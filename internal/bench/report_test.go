package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"regpromo/internal/interp"
)

// TestCollectReport runs the matrix on a small subset and checks the
// report carries all four configurations per program with dynamic
// counts, and that every figure row is derived from its cells' counts.
func TestCollectReport(t *testing.T) {
	r, err := CollectReport(Options{Programs: []string{"tsp", "dhrystone"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaVersion {
		t.Fatalf("schema = %q", r.Schema)
	}
	if len(r.Programs) != 2 {
		t.Fatalf("got %d programs", len(r.Programs))
	}
	for _, p := range r.Programs {
		if len(p.Configs) != 4 {
			t.Fatalf("%s: got %d configs, want the paper's 4", p.Name, len(p.Configs))
		}
		if p.Lines <= 0 {
			t.Fatalf("%s: missing line count", p.Name)
		}
		for _, c := range p.Configs {
			if c.Counts.Ops <= 0 {
				t.Fatalf("%s/%s: no dynamic counts", p.Name, c.Analysis)
			}
		}
	}
	// Figures: 4 figures × (2 programs × 2 analyses) rows.
	if len(r.Figures) != 4 {
		t.Fatalf("got %d figures", len(r.Figures))
	}
	for i, fig := range r.Figures {
		if fig.Figure != 5+i || len(fig.Rows) != 4 {
			t.Fatalf("figure %d (index %d): got %d rows", fig.Figure, i, len(fig.Rows))
		}
	}
	f5, ok := r.Figure(5)
	if !ok {
		t.Fatal("figure 5 missing")
	}
	for _, row := range f5.Rows {
		p, _ := r.Program(row.Program)
		without, _ := p.Config(row.Analysis, false)
		with, _ := p.Config(row.Analysis, true)
		want := newRow(row.Program, row.Analysis, without.Counts.Ops, with.Counts.Ops)
		if row != want || row.Difference != row.Without-row.With {
			t.Fatalf("figure 5 row %+v, want %+v", row, want)
		}
	}
}

// TestCollectReportParallelDeterminism: the JSON report must be
// byte-identical however the programs were scheduled — it holds no
// timing, so nothing needs stripping before the comparison.
func TestCollectReportParallelDeterminism(t *testing.T) {
	serial := renderReport(t, Options{Programs: poolPrograms})
	if parallel := renderReport(t, Options{Programs: poolPrograms, Parallel: 4}); !bytes.Equal(serial, parallel) {
		t.Error("parallel report differs from serial report")
	}
}

// TestRunFiguresParallelDeterminism: the parallel measurement matrix
// must render byte-identical tables and compile-side diagnostics to
// the serial one.
func TestRunFiguresParallelDeterminism(t *testing.T) {
	serial, err := CollectReport(Options{Programs: poolPrograms})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CollectReport(Options{Programs: poolPrograms, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Figures) != len(par.Figures) {
		t.Fatalf("serial run has %d figures, parallel %d", len(serial.Figures), len(par.Figures))
	}
	for i := range serial.Figures {
		s, p := FormatTable(&serial.Figures[i]), FormatTable(&par.Figures[i])
		if s != p {
			t.Errorf("%s: parallel table differs from serial\nserial:\n%s\nparallel:\n%s", serial.Figures[i].Metric, s, p)
		}
	}
	type diag struct{ promotions, spilled int }
	diags := func(r *Report) map[string]diag {
		m := map[string]diag{}
		for _, p := range r.Programs {
			for _, c := range p.Configs {
				m[p.Name+"/"+c.Analysis+"/"+strconv.FormatBool(c.Promote)] = diag{c.Promotions, c.Spilled}
			}
		}
		return m
	}
	if !reflect.DeepEqual(diags(serial), diags(par)) {
		t.Error("diagnostic counts differ between serial and parallel runs")
	}
}

// TestEnginesParityReport: listing more engines only adds the parity
// check — each engine runs, all agree, and the report is byte-identical
// to a flat-only one.
func TestEnginesParityReport(t *testing.T) {
	flat := renderReport(t, Options{Programs: poolPrograms})
	both := renderReport(t, Options{Programs: poolPrograms, Engines: []interp.Engine{interp.EngineFlat, interp.EngineSwitch}})
	if !bytes.Equal(flat, both) {
		t.Error("flat+switch report differs from the flat-only report")
	}
}

// poolPrograms is a small, cheap subset used by the determinism tests.
var poolPrograms = []string{"allroots", "dhrystone", "tsp"}

func renderReport(t *testing.T, opts Options) []byte {
	t.Helper()
	r, err := CollectReport(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportJSONRoundTripAndBaseline writes a report to a BENCH_*.json
// file, reloads it through the baseline loader, and checks nothing is
// lost.
func TestReportJSONRoundTripAndBaseline(t *testing.T) {
	r, err := CollectReport(Options{Programs: []string{"tsp"}})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if _, _, err := LatestBaseline(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir should report ErrNotExist, got %v", err)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Two baselines: the loader must pick the newer one.
	old := filepath.Join(dir, "BENCH_20250101T000000.json")
	if err := os.WriteFile(old, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	newer := filepath.Join(dir, "BENCH_20260806T120000.json")
	if err := os.WriteFile(newer, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	back, path, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != newer {
		t.Fatalf("loaded %s, want %s", path, newer)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatal("report does not round-trip through BENCH_*.json")
	}
	p, ok := back.Program("tsp")
	if !ok {
		t.Fatal("tsp missing after reload")
	}
	if c, ok := p.Config("modref", true); !ok || c.Counts.Ops <= 0 {
		t.Fatal("config lookup broken after reload")
	}
}

// TestLoadReportRejectsGarbage: syntax errors, foreign schemas, and
// every bench schema but the current one are reported, not silently
// accepted; an old report gets one message that names its schema and
// says how to regenerate it.
func TestLoadReportRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "BENCH_bad.json")
	load := func(content string) error {
		t.Helper()
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadReport(bad)
		return err
	}
	if load(`{"schema":"other/1"}`) == nil {
		t.Fatal("foreign schema accepted")
	}
	if load(`{`) == nil {
		t.Fatal("syntax error accepted")
	}
	for _, old := range []string{"regpromo-bench/1", "regpromo-bench/6"} {
		err := load(`{"schema":"` + old + `","programs":[]}`)
		want := bad + `: schema "` + old + `" is not "regpromo-bench/7"; regenerate the report with ` + "`go run ./cmd/rpbench -json`"
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", old, err, want)
		}
	}
	if err := load(`{"schema":"regpromo-bench/7","programs":[]}`); err != nil {
		t.Errorf("current schema rejected: %v", err)
	}
}
