package main

import (
	"fmt"
	"time"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/analysis/certify"
	"regpromo/internal/analysis/modref"
	"regpromo/internal/analysis/pointsto"
	"regpromo/internal/callgraph"
	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/lexer"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/opt/clean"
	"regpromo/internal/opt/constprop"
	"regpromo/internal/opt/copyprop"
	"regpromo/internal/opt/dce"
	"regpromo/internal/opt/licm"
	"regpromo/internal/opt/pre"
	"regpromo/internal/opt/promote"
	"regpromo/internal/opt/valnum"
	"regpromo/internal/regalloc"
)

// The traced run calls every layer's public function itself, wrapping
// each call in a span. Spans stay in memory until the run ends; a
// layer's self time is its span's duration minus the time its child
// spans cover. Spans are recorded around calls from outside the
// layers only — nothing inside the compiler is instrumented.

type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index into tracer.spans, -1 for a cell's root
	cell       int
	side       bool // recorded during the workload's side work
}

// tracer holds a traced run's spans and the counts recorded at the same
// layer boundaries. Every value is kept twice: for the workload's main
// cycles and for its side work (see perLayer).
type tracer struct {
	origin time.Time
	spans  []span
	cell   int
	side   bool
	sums   map[string]*[2]float64 // [main, side]
	maxes  map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), sums: map[string]*[2]float64{}, maxes: map[string]float64{}}
}

// newCell opens the root span of one cell.
func (t *tracer) newCell(name string) int {
	t.cell++
	return t.begin(name, -1)
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, cell: t.cell, side: t.side})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].end = time.Since(t.origin)
	return t.spans[id].end - t.spans[id].start
}

// add accumulates a count or a derived value.
func (t *tracer) add(name string, v float64) { t.sumInto(name, t.side, v) }

// max keeps the largest value seen, for the worst-function stats.
func (t *tracer) max(name string, v float64) {
	if v > t.maxes[name] {
		t.maxes[name] = v
	}
}

// stores gives each compile path of a traced cell its own analysis
// cache, so the layered compile and its two driver references see the
// same cache history.
type stores struct{ layered, parallel, serial *cache.Store }

func newStores() *stores { return &stores{cache.NewStore(), cache.NewStore(), cache.NewStore()} }

// compile is the traced form of a cell's compile: the layered compile
// under spans, then driver.CompileSource under the same configuration,
// which must produce byte-identical IL, then a serial driver compile
// that sizes the driver's own overhead and the tracing overhead.
func (t *tracer) compile(name, src string, cfg driver.Config, st *stores, parent int) (*driver.Compilation, error) {
	lcfg, pcfg, scfg := cfg, cfg, cfg
	if st != nil {
		lcfg.AnalysisCache, pcfg.AnalysisCache, scfg.AnalysisCache = st.layered, st.parallel, st.serial
	}
	scfg.Workers = 1

	settle()
	root := t.begin("compile.traced", parent)
	m, err := t.layers(name, src, lcfg, root)
	tracedDur := t.end(root)
	if err != nil {
		return nil, err
	}
	settle()
	dc := t.begin("driver.compile", parent)
	c, err := driver.CompileSource(name, src, pcfg)
	parDur := t.end(dc)
	if err != nil {
		return nil, err
	}
	settle()
	t0 := time.Now()
	if _, err := driver.CompileSource(name, src, scfg); err != nil {
		return nil, err
	}
	serialDur := time.Since(t0)
	if ir.FormatModule(m) != ir.FormatModule(c.Module) {
		return nil, fmt.Errorf("layer-by-layer IL differs from driver.CompileSource")
	}
	// The lexer span is left out: parser.Parse lexes again inside its
	// own span, and the driver lexes once.
	var layersDur time.Duration
	for i := root + 1; i < len(t.spans); i++ {
		if s := t.spans[i]; s.parent == root && s.name != "cc.lexer" {
			layersDur += s.end - s.start
		}
	}
	t.add("driver.overhead.ms", ms(serialDur-layersDur))
	t.add("trace.overhead.ms", ms(tracedDur-serialDur))
	t.add("speedup.serial_traced_ns", float64(tracedDur))
	t.add("speedup.parallel_ns", float64(parDur))
	return c, nil
}

// layers compiles src by calling each layer in the order
// cfg.Passes() names, mirroring the driver's serial pass walk.
func (t *tracer) layers(name, src string, cfg driver.Config, root int) (*ir.Module, error) {
	sp := t.begin("cc.lexer", root)
	toks, err := lexer.Tokenize(name, src)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	t.add("cc.lexer.tokens", float64(len(toks)))
	// parser.Parse lexes its input itself; perLayer subtracts the
	// separately timed lexer pass from the parser's span.
	sp = t.begin("cc.parser", root)
	file, err := parser.Parse(name, src)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("cc.sema", root)
	prog, err := sema.Check(file)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("cc.irgen", root)
	m, err := irgen.Generate(prog)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	t.add("cc.irgen.il_instrs", float64(countInstrs(m)))

	var cg *callgraph.Graph
	buildCG := func(parent int) {
		sp := t.begin("callgraph", parent)
		cg = callgraph.Build(m)
		t.end(sp)
	}
	var solved, cached int
	for _, pass := range cfg.Passes() {
		switch pass {
		case driver.PassModRef:
			sp := t.begin("modref", root)
			if cg == nil {
				buildCG(sp)
			}
			res := modref.Analyze(m, cg, cfg.AnalysisCache)
			t.end(sp)
			t.add("modref.sccs_solved", float64(res.SCCsSolved))
			t.add("modref.sccs_cached", float64(res.SCCsCached))
			solved, cached = solved+res.SCCsSolved, cached+res.SCCsCached
		case driver.PassPointsTo:
			sp := t.begin("pointsto", root)
			res := pointsto.Solve(m, cg, cfg.AnalysisCache, pointsto.Options{})
			t.end(sp)
			t.add("pointsto.steps", float64(res.Steps))
			solved, cached = solved+res.SCCsSolved, cached+res.SCCsCached
		case driver.PassRefine:
			sp := t.begin("modref.refine", root)
			modref.RefineMemOps(m)
			buildCG(sp)
			t.end(sp)
		case driver.PassConstProp, driver.PassValnum, driver.PassLICM, driver.PassPRE,
			driver.PassValnumLate, driver.PassCopyProp, driver.PassDCE, driver.PassClean:
			metric := optMetric(pass)
			sp := t.begin(metric, root)
			n := optRun[pass](m)
			t.end(sp)
			t.add(metric+".changed", float64(n))
		case driver.PassPromote:
			sp := t.begin("opt.promote", root)
			st := promote.Run(m, promote.Options{
				Pointer:             cfg.PointerPromote,
				SkipUnwrittenStores: cfg.SkipUnwrittenStores,
				PressureLimit:       cfg.Throttle,
			})
			t.end(sp)
			t.add("opt.promote.changed", float64(st.RefsRewritten))
			t.add("opt.promote.promotions", float64(st.ScalarPromotions+st.PointerPromotions))
			t.add("opt.promote.loads_inserted", float64(st.LoadsInserted))
			t.add("opt.promote.stores_inserted", float64(st.StoresInserted))
			sp = t.begin("certify", root)
			over := 0
			for _, f := range m.FuncsInOrder() {
				for _, p := range certify.MeasurePressure(f, st.Regions, cfg.K) {
					if p.OverBudget {
						over++
					}
				}
			}
			t.end(sp)
			t.add("certify.over_budget", float64(over))
		case driver.PassRegalloc:
			sp := t.begin("regalloc", root)
			st, err := regalloc.Run(m, regalloc.Options{K: cfg.K})
			t.end(sp)
			if err != nil {
				return nil, err
			}
			t.add("regalloc.spilled", float64(st.Spilled))
			t.add("regalloc.spill_loads", float64(st.SpillLoads))
			t.add("regalloc.spill_stores", float64(st.SpillStores))
			t.add("regalloc.coalesced", float64(st.Coalesced))
			t.max("regalloc.rounds", float64(st.Rounds))
			t.max("regalloc.max_live", float64(st.MaxLive))
		case driver.PassVerify:
			sp := t.begin("ir.verify", root)
			err := ir.VerifyModule(m)
			t.end(sp)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("no layer call for pass %q", pass)
		}
	}
	t.add("cache.sccs_solved", float64(solved))
	t.add("cache.sccs_cached", float64(cached))
	return m, nil
}

var optRun = map[string]func(*ir.Module) int{
	driver.PassConstProp:  constprop.Run,
	driver.PassValnum:     valnum.Run,
	driver.PassLICM:       licm.Run,
	driver.PassPRE:        pre.Run,
	driver.PassValnumLate: valnum.Run,
	driver.PassCopyProp:   copyprop.Run,
	driver.PassDCE:        dce.Run,
	driver.PassClean:      clean.Run,
}

// optPasses are the middle-end passes reported per layer, in pipeline
// order, by their metric names.
var optPasses = []string{"constprop", "valnum", "licm", "promote", "pre", "valnum_post", "copyprop", "dce", "clean"}

func optMetric(pass string) string {
	if pass == driver.PassValnumLate {
		return "opt.valnum_post"
	}
	return "opt." + pass
}

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.FuncsInOrder() {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perLayerUnits lists every per-layer metric with its unit, in the
// order BENCHMARK.json gives them.
func perLayerUnits() [][2]string {
	u := [][2]string{
		{"cc.lexer.ms", "ms"}, {"cc.lexer.tokens", "count"}, {"cc.parser.ms", "ms"},
		{"cc.sema.ms", "ms"}, {"cc.irgen.ms", "ms"}, {"cc.irgen.il_instrs", "count"},
		{"callgraph.ms", "ms"},
		{"modref.ms", "ms"}, {"modref.sccs_solved", "count"}, {"modref.sccs_cached", "count"},
		{"modref.refine.ms", "ms"},
		{"pointsto.ms", "ms"}, {"pointsto.steps", "count"},
		{"cache.hit_ratio", "ratio"},
	}
	for _, p := range optPasses {
		u = append(u, [2]string{"opt." + p + ".ms", "ms"}, [2]string{"opt." + p + ".changed", "count"})
	}
	return append(u,
		[2]string{"opt.promote.promotions", "count"},
		[2]string{"opt.promote.loads_inserted", "count"},
		[2]string{"opt.promote.stores_inserted", "count"},
		[2]string{"certify.ms", "ms"}, [2]string{"certify.over_budget", "count"},
		[2]string{"regalloc.ms", "ms"}, [2]string{"regalloc.spilled", "count"},
		[2]string{"regalloc.spill_loads", "count"}, [2]string{"regalloc.spill_stores", "count"},
		[2]string{"regalloc.coalesced", "count"}, [2]string{"regalloc.rounds", "count"},
		[2]string{"regalloc.max_live", "count"},
		[2]string{"ir.verify.ms", "ms"},
		[2]string{"driver.compile.ms", "ms"}, [2]string{"driver.overhead.ms", "ms"},
		[2]string{"driver.parallel_speedup", "ratio"}, [2]string{"trace.overhead.ms", "ms"},
		[2]string{"interp.flatten.ms", "ms"}, [2]string{"interp.flat_instrs", "count"},
		[2]string{"interp.flat.run_ms", "ms"}, [2]string{"interp.dyn_ops", "count"},
		[2]string{"interp.dyn_loads", "count"}, [2]string{"interp.dyn_stores", "count"},
		[2]string{"native.codegen.ms", "ms"}, [2]string{"native.source_kb", "KiB"},
		[2]string{"native.build.ms", "ms"}, [2]string{"native.load.ms", "ms"},
		[2]string{"native.run.ms", "ms"}, [2]string{"native.builds", "count"},
	)
}

func perLayerNames() []string {
	var names []string
	for _, u := range perLayerUnits() {
		names = append(names, u[0])
	}
	return names
}

// perLayer turns the spans and counts into per-layer metrics. Each
// value is per round of the workload: the main-cycle total divided by
// the number of cycles, plus the side work's total. Counts of
// identical cycles therefore repeat exactly from run to run.
func (t *tracer) perLayer(cycles int) metrics {
	if cycles < 1 {
		cycles = 1
	}
	// Self time of every span, by name.
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		t.sumInto(s.name+".ms", s.side, ms(s.end-s.start-child[i]))
	}
	val := func(name string) float64 {
		s := t.sums[name]
		if s == nil {
			return 0
		}
		return s[0]/float64(cycles) + s[1]
	}
	out := metrics{}
	for _, u := range perLayerUnits() {
		out.set(u[0], val(u[0]), u[1])
	}
	// parser.Parse re-lexes its input; report the parser's own share.
	out.set("cc.parser.ms", val("cc.parser.ms")-val("cc.lexer.ms"), "ms")
	out.set("opt.promote.ms", val("opt.promote.ms"), "ms")
	out.set("interp.flat.run_ms", val("interp.flat.run.ms"), "ms")
	if solved, cached := val("cache.sccs_solved"), val("cache.sccs_cached"); solved+cached > 0 {
		out.set("cache.hit_ratio", cached/(solved+cached), "ratio")
	}
	if par := val("speedup.parallel_ns"); par > 0 {
		out.set("driver.parallel_speedup", val("speedup.serial_traced_ns")/par, "ratio")
	}
	for name, v := range t.maxes {
		out.set(name, v, "count")
	}
	return out
}

func (t *tracer) sumInto(name string, side bool, v float64) {
	s := t.sums[name]
	if s == nil {
		s = &[2]float64{}
		t.sums[name] = s
	}
	if side {
		s[1] += v
	} else {
		s[0] += v
	}
}
