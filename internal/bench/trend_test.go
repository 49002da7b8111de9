package bench

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regpromo/internal/analysis/certify"
)

func loadFixture(t *testing.T, name string) *Report {
	t.Helper()
	r, err := LoadReport(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCompareDetectsRegression checks the gate on the committed
// fixture pair: the regressed report grew dynamic ops by 3.75% and
// lost two promotions, both past the default 1% threshold.
func TestCompareDetectsRegression(t *testing.T) {
	old := loadFixture(t, "trend_old.json")
	cur := loadFixture(t, "trend_regressed.json")
	cr := Compare(old, cur, 1.0)
	if cr.OK() {
		t.Fatal("regressed report passed the gate")
	}
	regs := cr.Regressions()
	byMetric := map[string]Delta{}
	for _, d := range regs {
		byMetric[d.Metric] = d
	}
	ops, ok := byMetric["ops"]
	if !ok {
		t.Fatalf("ops regression not flagged; got %v", regs)
	}
	if ops.Old != 80000 || ops.New != 83000 || ops.Percent != 3.75 || !ops.Worse {
		t.Errorf("ops delta = %+v", ops)
	}
	if _, ok := byMetric["promotions"]; !ok {
		t.Errorf("promotions drop not flagged; got %v", regs)
	}
	out := cr.Format()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "matmul/modref+promote ops") {
		t.Errorf("format missing regression row:\n%s", out)
	}
}

// TestCompareImprovementDirection swaps the fixture pair: the same
// deltas read as improvements, and the gate passes.
func TestCompareImprovementDirection(t *testing.T) {
	old := loadFixture(t, "trend_regressed.json")
	cur := loadFixture(t, "trend_old.json")
	cr := Compare(old, cur, 1.0)
	if !cr.OK() {
		t.Fatalf("improving report failed the gate: %v", cr.Regressions())
	}
	imps := cr.Improvements()
	var sawOps, sawPromos bool
	for _, d := range imps {
		switch d.Metric {
		case "ops":
			sawOps = true
		case "promotions":
			sawPromos = true
			if d.Worse {
				t.Error("more promotions marked worse")
			}
		}
	}
	if !sawOps || !sawPromos {
		t.Errorf("improvements missing ops/promotions: %v", imps)
	}
}

// TestCompareIdenticalReports: a self-compare finds deltas (every
// metric is reported) but no change past the threshold.
func TestCompareIdenticalReports(t *testing.T) {
	r := loadFixture(t, "trend_old.json")
	cr := Compare(r, r, 1.0)
	if !cr.OK() {
		t.Fatalf("self-compare regressed: %v", cr.Regressions())
	}
	if len(cr.Deltas) == 0 {
		t.Fatal("self-compare produced no deltas")
	}
	if len(cr.Improvements()) != 0 {
		t.Errorf("self-compare improved: %v", cr.Improvements())
	}
	if out := cr.Format(); !strings.Contains(out, "no change past threshold") {
		t.Errorf("format:\n%s", out)
	}
}

// TestCompareThreshold checks that raising the threshold releases the
// gate: every fixture regression is under 200%.
func TestCompareThreshold(t *testing.T) {
	old := loadFixture(t, "trend_old.json")
	cur := loadFixture(t, "trend_regressed.json")
	if cr := Compare(old, cur, 200); !cr.OK() {
		t.Errorf("threshold 200%% still gated: %v", cr.Regressions())
	}
}

// TestCompareSkippedCells: cells present in only one report are
// counted, not silently dropped.
func TestCompareSkippedCells(t *testing.T) {
	old := loadFixture(t, "trend_old.json")
	cur := loadFixture(t, "trend_regressed.json")
	cur.Programs = append(cur.Programs, ProgramReport{
		Name:    "extra",
		Configs: []ConfigReport{{Analysis: "modref"}},
	})
	cr := Compare(old, cur, 1.0)
	if cr.SkippedCells != 1 {
		t.Errorf("SkippedCells = %d, want 1", cr.SkippedCells)
	}
	if out := cr.Format(); !strings.Contains(out, "skipped") {
		t.Errorf("format does not mention skipped cells:\n%s", out)
	}
}

// copyFixture installs a fixture under a BENCH_*.json name in dir.
func copyFixture(t *testing.T, dir, fixture, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadTrend checks history loading: filename order, the
// newest-pair gate, and the per-report trend table.
func TestLoadTrend(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadTrend(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("empty dir: err = %v, want ErrNotExist", err)
	}
	copyFixture(t, dir, "trend_old.json", "BENCH_20260801T000000.json")
	copyFixture(t, dir, "trend_regressed.json", "BENCH_20260802T000000.json")
	tr, err := LoadTrend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(tr.Points))
	}
	if filepath.Base(tr.Points[0].Path) != "BENCH_20260801T000000.json" {
		t.Errorf("history out of order: %s first", tr.Points[0].Path)
	}
	cr := tr.Compare(1.0)
	if cr == nil || cr.OK() {
		t.Fatalf("newest-pair compare = %+v, want a gated regression", cr)
	}
	out := tr.Format()
	if !strings.Contains(out, "BENCH_20260801T000000.json") || !strings.Contains(out, "+1.67%") {
		t.Errorf("trend table:\n%s", out)
	}
	// A single report is a valid history but yields no comparison.
	solo := t.TempDir()
	copyFixture(t, solo, "trend_old.json", "BENCH_1.json")
	st, err := LoadTrend(solo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compare(1.0) != nil {
		t.Error("single-point history produced a comparison")
	}
}

// TestBaselineBefore: the newest report other than the excluded one.
func TestBaselineBefore(t *testing.T) {
	dir := t.TempDir()
	copyFixture(t, dir, "trend_old.json", "BENCH_20260801T000000.json")
	newest := copyFixture(t, dir, "trend_regressed.json", "BENCH_20260802T000000.json")
	r, path, err := BaselineBefore(dir, newest)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_20260801T000000.json" {
		t.Errorf("baseline = %s", path)
	}
	if c, _ := r.Programs[0].Config("modref", true); c.Counts.Ops != 80000 {
		t.Errorf("loaded wrong report: modref+promote ops %d", c.Counts.Ops)
	}
	// Excluding the only other file leaves nothing.
	if _, _, err := BaselineBefore(t.TempDir(), "x.json"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("empty dir: err = %v, want ErrNotExist", err)
	}
}

// TestPct pins the relative-change corner cases.
func TestPct(t *testing.T) {
	cases := []struct {
		old, cur int64
		want     float64
	}{
		{0, 0, 0},
		{0, 5, 100},
		{100, 150, 50},
		{200, 100, -50},
	}
	for _, c := range cases {
		if got := pct(c.old, c.cur); got != c.want {
			t.Errorf("pct(%d, %d) = %v, want %v", c.old, c.cur, got, c.want)
		}
	}
}

// withPressure returns the trend_old.json fixture with the given
// pressure report on its one promoting cell (matmul, modref+promote).
func withPressure(t *testing.T, ps ...certify.Pressure) *Report {
	t.Helper()
	r := loadFixture(t, "trend_old.json")
	p, _ := r.Program("matmul")
	c, ok := p.Config("modref", true)
	if !ok {
		t.Fatal("fixture lacks matmul modref+promote")
	}
	c.Pressure = ps
	return r
}

func pressureDeltas(cr *CompareReport) []Delta {
	var ds []Delta
	for _, d := range cr.Deltas {
		if strings.HasPrefix(d.Metric, "pressure/") {
			ds = append(ds, d)
		}
	}
	return ds
}

// TestComparePressureGate: static register pressure gates like the
// dynamic counts — a site going over budget fails the comparison even
// though no dynamic count moved, and cells without promotion sites
// contribute no pressure deltas.
func TestComparePressureGate(t *testing.T) {
	under := withPressure(t, certify.Pressure{Func: "main", Values: 10, MaxLive: 20, Limit: 32})
	over := withPressure(t, certify.Pressure{Func: "main", Values: 28, MaxLive: 80, Limit: 32, OverBudget: true})
	cr := Compare(under, over, 1.0)
	if cr.OK() {
		t.Fatal("a site going over budget passed the gate")
	}
	regs := map[string]Delta{}
	for _, d := range cr.Regressions() {
		regs[d.Metric] = d
	}
	if d, ok := regs["pressure/over_budget"]; !ok || d.Old != 0 || d.New != 1 {
		t.Errorf("pressure/over_budget regression = %+v (found %v)", d, ok)
	}
	if d, ok := regs["pressure/max_live"]; !ok || d.Old != 20 || d.New != 80 {
		t.Errorf("pressure/max_live regression = %+v (found %v)", d, ok)
	}
	if len(regs) != 2 {
		t.Errorf("want only the two pressure regressions, got %v", cr.Regressions())
	}
	if !Compare(over, over, 1.0).OK() {
		t.Error("identical reports regressed")
	}
	// One promoting cell carries pressure: two deltas, none from the
	// non-promoting cell.
	if ds := pressureDeltas(cr); len(ds) != 2 {
		t.Errorf("pressure deltas = %v, want 2", ds)
	}
}

// TestPressureHelpers pins the two per-cell pressure reductions the
// gate compares.
func TestPressureHelpers(t *testing.T) {
	cases := []struct {
		name       string
		ps         []certify.Pressure
		over, live int64
	}{
		{"none", nil, 0, 0},
		{"under", []certify.Pressure{{MaxLive: 12}}, 0, 12},
		{"mixed", []certify.Pressure{{MaxLive: 40, OverBudget: true}, {MaxLive: 80}, {MaxLive: 33, OverBudget: true}}, 2, 80},
	}
	for _, c := range cases {
		if got := overBudgetSites(c.ps); got != c.over {
			t.Errorf("%s: overBudgetSites = %d, want %d", c.name, got, c.over)
		}
		if got := worstMaxLive(c.ps); got != c.live {
			t.Errorf("%s: worstMaxLive = %d, want %d", c.name, got, c.live)
		}
	}
}
