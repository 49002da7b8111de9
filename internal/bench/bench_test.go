package bench

import (
	"strings"
	"testing"

	"regpromo/internal/driver"
)

func measure(t *testing.T, name string, cfg driver.Config) *Measurement {
	t.Helper()
	for _, p := range Suite() {
		if p.Name == name {
			m, err := Measure(p, cfg)
			if err != nil {
				t.Fatalf("measure %s: %v", name, err)
			}
			return m
		}
	}
	t.Fatalf("no program named %s", name)
	return nil
}

// TestSuiteCompilesAndAgrees runs every program under all four paper
// configurations and checks that outputs agree (the built-in
// miscompilation tripwire) and that counters are sane.
func TestSuiteCompilesAndAgrees(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			var out string
			for i, cfg := range driver.Configurations() {
				m, err := Measure(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if m.Output == "" {
					t.Fatal("program produced no output")
				}
				if i == 0 {
					out = m.Output
				} else if m.Output != out {
					t.Fatalf("config %+v changed output:\n%q\nvs\n%q", cfg, m.Output, out)
				}
				if m.Counts.Ops <= 0 {
					t.Fatalf("no operations counted: %+v", m.Counts)
				}
			}
		})
	}
}

// TestShapeMatchesPaper checks the qualitative structure of the
// paper's results on the stand-in suite: which programs win, which
// lose, and where analysis precision matters.
func TestShapeMatchesPaper(t *testing.T) {
	row := func(name string, a driver.Analysis) (without, with Measurement) {
		t.Helper()
		w := measure(t, name, driver.Config{Analysis: a})
		p := measure(t, name, driver.Config{Analysis: a, Promote: true})
		return *w, *p
	}

	t.Run("tsp-and-allroots-see-nothing", func(t *testing.T) {
		for _, name := range []string{"tsp", "allroots"} {
			w, p := row(name, driver.ModRef)
			if p.Counts.Stores != w.Counts.Stores || p.Counts.Loads != w.Counts.Loads {
				t.Errorf("%s: promotion should be a no-op: %+v vs %+v", name, w.Counts, p.Counts)
			}
		}
	})

	t.Run("mlink-is-the-big-winner", func(t *testing.T) {
		w, p := row("mlink", driver.ModRef)
		storeCut := float64(w.Counts.Stores-p.Counts.Stores) / float64(w.Counts.Stores)
		if storeCut < 0.40 {
			t.Errorf("mlink store reduction = %.1f%%, want the paper's large cut (>40%%)", 100*storeCut)
		}
		opCut := float64(w.Counts.Ops-p.Counts.Ops) / float64(w.Counts.Ops)
		if opCut <= 0 {
			t.Errorf("mlink total ops should improve, got %.2f%%", 100*opCut)
		}
	})

	t.Run("fft-needs-points-to", func(t *testing.T) {
		wm, pm := row("fft", driver.ModRef)
		wp, pp := row("fft", driver.PointsTo)
		cutModref := wm.Counts.Stores - pm.Counts.Stores
		cutPointer := wp.Counts.Stores - pp.Counts.Stores
		if cutPointer <= cutModref {
			t.Errorf("points-to must unlock fft: modref cut %d, pointer cut %d", cutModref, cutPointer)
		}
	})

	t.Run("bc-rewards-precision", func(t *testing.T) {
		wm, pm := row("bc", driver.ModRef)
		wp, pp := row("bc", driver.PointsTo)
		cutModref := float64(wm.Counts.Stores-pm.Counts.Stores) / float64(wm.Counts.Stores)
		cutPointer := float64(wp.Counts.Stores-pp.Counts.Stores) / float64(wp.Counts.Stores)
		if cutPointer <= cutModref {
			t.Errorf("bc: pointer analysis should remove more stores (modref %.1f%%, pointer %.1f%%)",
				100*cutModref, 100*cutPointer)
		}
	})

	t.Run("dhrystone-once-loop-regresses", func(t *testing.T) {
		w, p := row("dhrystone", driver.ModRef)
		if p.Counts.Ops <= w.Counts.Ops {
			t.Errorf("dhrystone should regress slightly: %d -> %d ops", w.Counts.Ops, p.Counts.Ops)
		}
	})

	t.Run("water-register-pressure-cancels-promotion", func(t *testing.T) {
		w, p := row("water", driver.ModRef)
		if p.Promote < 28 {
			t.Errorf("water should promote (at least) its 28 accumulators, got %d", p.Promote)
		}
		if p.Spilled == 0 {
			t.Error("water's promotion must force spills")
		}
		// The spill traffic eats most of the benefit: loads go UP,
		// and the total-operation gain is a fraction of what the
		// promotion count alone would predict (mlink-class programs
		// gain 15%+ from a handful of promotions; water's 28 buy
		// almost nothing).
		if p.Counts.Loads <= w.Counts.Loads {
			t.Errorf("water's spills should increase loads: %d -> %d", w.Counts.Loads, p.Counts.Loads)
		}
		delta := float64(w.Counts.Ops-p.Counts.Ops) / float64(w.Counts.Ops)
		if delta > 0.06 {
			t.Errorf("water should show almost no win (got %.2f%% improvement)", 100*delta)
		}
	})

	t.Run("insensitivity-to-analysis-precision", func(t *testing.T) {
		// §5: "the improved information derived from pointer analysis
		// does not greatly improve the results of register promotion"
		// — outside the fft/bc-style cases the two analyses agree.
		same := 0
		diff := 0
		for _, name := range []string{"tsp", "mlink", "clean", "caches", "li", "dhrystone", "indent", "allroots", "bison", "geb"} {
			_, pm := row(name, driver.ModRef)
			_, pp := row(name, driver.PointsTo)
			if pm.Counts.Stores == pp.Counts.Stores {
				same++
			} else {
				diff++
			}
		}
		if same < diff {
			t.Errorf("most programs should be insensitive to analysis precision: same=%d diff=%d", same, diff)
		}
	})
}

// TestPointerPromotionStudy reproduces §3.3's findings: fft is the
// only significant success.
func TestPointerPromotionStudy(t *testing.T) {
	scalarCfg := driver.Config{Analysis: driver.PointsTo, Promote: true}
	ptrCfg := scalarCfg
	ptrCfg.PointerPromote = true

	fftScalar := measure(t, "fft", scalarCfg)
	fftPtr := measure(t, "fft", ptrCfg)
	if fftPtr.Counts.Loads >= fftScalar.Counts.Loads {
		t.Errorf("pointer promotion must remove extra fft loads: %d -> %d",
			fftScalar.Counts.Loads, fftPtr.Counts.Loads)
	}
	if fftPtr.Output != fftScalar.Output {
		t.Error("pointer promotion changed fft output")
	}

	// Most other programs see no change.
	unchanged := 0
	others := []string{"tsp", "mlink", "clean", "li", "dhrystone", "allroots", "bison"}
	for _, name := range others {
		s := measure(t, name, scalarCfg)
		p := measure(t, name, ptrCfg)
		if p.Output != s.Output {
			t.Fatalf("%s: pointer promotion changed output", name)
		}
		if p.Counts.Ops == s.Counts.Ops {
			unchanged++
		}
	}
	if unchanged < len(others)-1 {
		t.Errorf("pointer promotion should be a no-op on most programs; unchanged=%d/%d",
			unchanged, len(others))
	}
}

// TestFigureTablesEndToEnd renders the figure tables from a report
// over a subset.
func TestFigureTablesEndToEnd(t *testing.T) {
	r, err := CollectReport(Options{Programs: []string{"mlink", "tsp"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 6, 7} {
		f, ok := r.Figure(n)
		if !ok {
			t.Fatalf("figure %d missing", n)
		}
		if len(f.Rows) != 4 { // 2 programs × 2 analyses
			t.Fatalf("%s: got %d rows", f.Metric, len(f.Rows))
		}
		table := FormatTable(f)
		if !strings.Contains(table, "mlink") || !strings.Contains(table, "% removed") {
			t.Fatalf("bad table:\n%s", table)
		}
	}
}

func TestFigure4Table(t *testing.T) {
	table := FormatFigure4()
	for _, p := range Suite() {
		if !strings.Contains(table, p.Name) {
			t.Fatalf("figure 4 table missing %s:\n%s", p.Name, table)
		}
	}
	if len(Suite()) != 15 {
		t.Fatalf("suite should list 15 rows (14 programs, gzip in both directions), got %d", len(Suite()))
	}
}

// TestAblationSkipUnwrittenStores checks the demotion-store refinement
// never increases stores and preserves behaviour.
func TestAblationSkipUnwrittenStores(t *testing.T) {
	for _, name := range []string{"mlink", "bison", "dhrystone", "geb"} {
		base := measure(t, name, driver.Config{Analysis: driver.ModRef, Promote: true})
		skip := measure(t, name, driver.Config{Analysis: driver.ModRef, Promote: true, SkipUnwrittenStores: true})
		if skip.Output != base.Output {
			t.Fatalf("%s: ablation changed output", name)
		}
		if skip.Counts.Stores > base.Counts.Stores {
			t.Fatalf("%s: skipping unwritten stores must not add stores: %d -> %d",
				name, base.Counts.Stores, skip.Counts.Stores)
		}
	}
}

// TestWeightedCyclesAmplifiesPromotion quantifies §5's latency remark:
// pricing memory operations above arithmetic must increase promotion's
// measured benefit on memory-bound winners and deepen the spill losses.
func TestWeightedCyclesAmplifiesPromotion(t *testing.T) {
	w := measure(t, "mlink", driver.Config{Analysis: driver.ModRef})
	p := measure(t, "mlink", driver.Config{Analysis: driver.ModRef, Promote: true})
	plainCut := float64(w.Counts.Ops-p.Counts.Ops) / float64(w.Counts.Ops)
	weight := func(m *Measurement) float64 {
		return float64(m.Counts.Ops + (MemLatency-1)*(m.Counts.Loads+m.Counts.Stores))
	}
	weightedCut := (weight(w) - weight(p)) / weight(w)
	if weightedCut <= plainCut {
		t.Fatalf("weighted improvement (%.1f%%) must exceed flat improvement (%.1f%%)",
			100*weightedCut, 100*plainCut)
	}
}
