package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/testgen"
)

// cfgName names the paper's four configurations (driver.Configurations
// order) in cell names and the native child protocol.
var cfgName = []string{"modref", "modref-promote", "pointer", "pointer-promote"}

// scaleConfig is the configuration the recompile cells use: points-to
// with promotion, so every analysis runs and consults the cache.
var scaleConfig = driver.Config{Analysis: driver.PointsTo, Promote: true}

// cellKey identifies a suite cell: program × configuration index.
type cellKey struct {
	prog string
	cfg  int
}

func (k cellKey) String() string { return k.prog + "/" + cfgName[k.cfg] }

// compile compiles one cell: driver.CompileSource untraced, the
// layer-by-layer walk checked against it when traced. st, when non-nil,
// supplies the analysis caches.
func (b *benchRun) compile(name, src string, cfg driver.Config, st *stores, parent int) (*driver.Compilation, time.Duration, error) {
	cfg.Workers = workers
	if b.tr != nil {
		c, err := b.tr.compile(name, src, cfg, st, parent)
		return c, 0, err
	}
	if st != nil {
		cfg.AnalysisCache = st.parallel
	}
	settle()
	t0 := time.Now()
	c, err := driver.CompileSource(name, src, cfg)
	return c, time.Since(t0), err
}

// runFlat executes a compilation on the flat engine with its lowering
// done beforehand, returning the result and the run's wall time.
func (b *benchRun) runFlat(c *driver.Compilation, parent int) (*interp.Result, time.Duration, error) {
	if b.tr == nil {
		opts := interp.Options{Engine: interp.EngineFlat}
		if err := c.PrepareEngine(opts); err != nil {
			return nil, 0, err
		}
		settle()
		t0 := time.Now()
		res, err := c.Execute(opts)
		return res, time.Since(t0), err
	}
	sp := b.tr.begin("interp.flatten", parent)
	prog := interp.Flatten(c.Module, false)
	b.tr.end(sp)
	b.tr.add("interp.flat_instrs", float64(prog.Len()))
	sp = b.tr.begin("interp.flat.run", parent)
	res, err := prog.Run(interp.Options{})
	d := b.tr.end(sp)
	if err == nil {
		b.tr.add("interp.dyn_ops", float64(res.Counts.Ops))
		b.tr.add("interp.dyn_loads", float64(res.Counts.Loads))
		b.tr.add("interp.dyn_stores", float64(res.Counts.Stores))
	}
	return res, d, err
}

// cellSpan opens a traced cell's root span (-1 when untraced).
func (b *benchRun) cellSpan(name string) int {
	if b.tr == nil {
		return -1
	}
	return b.tr.newCell(name)
}

func (b *benchRun) endSpan(id int) {
	if b.tr != nil && id >= 0 {
		b.tr.end(id)
	}
}

// inSide marks the work fn does as the run's side work in the trace.
func (b *benchRun) inSide(fn func() error) error {
	if b.tr != nil {
		b.tr.side = true
		defer func() { b.tr.side = false }()
	}
	return fn()
}

// figures accumulates with/without-promotion count pairs for the
// Figure 5–7 ratios.
type figures map[cellKey]interp.Counts

// sample records the geometric-mean ratios over programs × analyses of
// promoted to unpromoted ops, stores and loads. A pair whose unpromoted
// count is zero has no ratio and is left out. Pairs are summed in a
// fixed order, so the ratios repeat to the last bit.
func (f figures) sample(b *benchRun) {
	var keys []cellKey
	for k := range f {
		if k.cfg%2 == 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].prog < keys[j].prog || keys[i].prog == keys[j].prog && keys[i].cfg < keys[j].cfg
	})
	var n [3]int
	var logs [3]float64
	for _, k := range keys {
		without := f[k]
		with, ok := f[cellKey{k.prog, k.cfg + 1}]
		if !ok {
			continue
		}
		pairs := [3][2]int64{
			{with.Ops, without.Ops}, {with.Stores, without.Stores}, {with.Loads, without.Loads},
		}
		for i, p := range pairs {
			if p[1] > 0 && p[0] > 0 {
				logs[i] += math.Log(float64(p[0]) / float64(p[1]))
				n[i]++
			}
		}
	}
	for i, name := range []string{"fig5_ops_ratio", "fig6_stores_ratio", "fig7_loads_ratio"} {
		if n[i] > 0 {
			b.sample(name, math.Exp(logs[i]/float64(n[i])))
		}
	}
}

// Every workload reports every end-to-end metric. Its own cells drive
// the metrics it is chosen for; the others come from side work: a fixed,
// seed-independent share of the other workloads' cells. suite-flat and
// suite-native recompile the small scale module; suite-flat and
// scale-recompile run sideProgram natively. Side work runs in rounds,
// one before the workload's own work and one between its cycles, so
// its samples spread over the whole run instead of sharing one stretch
// of machine noise.
type side struct {
	recompile bool
	native    *nativeSet // nil: no native side work
	rounds    int
}

// newSide prepares the side work: the native cells are built cold here.
func (b *benchRun) newSide(recompile, native bool) (*side, error) {
	s := &side{recompile: recompile}
	if native {
		err := b.inSide(func() error {
			var err error
			s.native, err = b.coldPass(nativeKeys(sideProgram), nil)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// round runs one round of side work. A traced run makes one round, so
// its per-layer figures count the side work once.
func (s *side) round(b *benchRun) error {
	if b.tr != nil && s.rounds > 0 {
		return nil
	}
	s.rounds++
	return b.inSide(func() error {
		if s.recompile {
			if _, warm, ok := b.recompile(b.sideScale); ok {
				b.sample("recompile_ms", ms(warm))
			}
		}
		if s.native != nil {
			return s.native.round(b, false)
		}
		return nil
	})
}

// runSuiteFlat: the paper's matrix — every suite program under the four
// configurations on the flat engine, the seed shuffling cell order.
func runSuiteFlat(b *benchRun) error {
	sw, err := b.newSide(true, true)
	if err != nil {
		return err
	}
	var cells []cellKey
	for _, p := range b.suite {
		for i := range driver.Configurations() {
			cells = append(cells, cellKey{p.Name, i})
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	first := figures{}
	compileRate, execRate := newRate(), newRate()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	for b.cycles == 0 || !b.expired() {
		if err := sw.round(b); err != nil {
			return err
		}
		for _, k := range cells {
			b.attempted++
			root := b.cellSpan(k.String())
			c, cd, err := b.compile(k.prog+".c", b.sources[k.prog], driver.Configurations()[k.cfg], nil, root)
			var res *interp.Result
			var rd time.Duration
			if err == nil {
				res, rd, err = b.runFlat(c, root)
			}
			b.endSpan(root)
			if err == nil {
				err = b.checkOutput(k.prog, res)
			}
			if err == nil && b.cycles > 0 && res.Counts != first[k] {
				err = fmt.Errorf("dynamic counts changed between cycles")
			}
			if err != nil {
				b.fail(k.String(), err)
				continue
			}
			if b.cycles == 0 {
				first[k] = res.Counts
			}
			compileRate.add(k.String(), float64(b.lines[k.prog]), cd)
			execRate.add(k.String(), float64(res.Counts.Ops), rd)
		}
		if b.cycles == 0 {
			first.sample(b)
		}
		if err := b.samplePeakRSS(); err != nil {
			return err
		}
		b.cycles++
	}
	b.sampleRate("compile_klines_per_s", compileRate, 1e3)
	b.sampleRate("exec_mops_per_s", execRate, 1e6)
	sw.native.sampleNative(b)
	return nil
}

// runScaleRecompile: the generated scale module compiled cold into an
// empty analysis cache, then recompiled warm after a one-function edit.
// Nothing of the module executes.
func runScaleRecompile(b *benchRun) error {
	sw, err := b.newSide(false, true)
	if err != nil {
		return err
	}
	compileRate := newRate()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	for b.cycles == 0 || !b.expired() {
		if err := sw.round(b); err != nil {
			return err
		}
		cold, warm, ok := b.recompile(b.scale)
		if ok {
			compileRate.add("scale", float64(b.scale.lines), cold)
			b.sample("recompile_ms", ms(warm))
		}
		if err := b.samplePeakRSS(); err != nil {
			return err
		}
		b.cycles++
	}
	b.sampleRate("compile_klines_per_s", compileRate, 1e3)
	sw.native.sampleNative(b)
	sw.native.sampleFlat(b)
	return nil
}

// runSuiteNative: every suite program under baseline and promote-modref
// on the native engine, the seed shuffling cell order. A cold pass
// builds every cell into an empty artifact cache, with the side work
// and warm passes over the cells built so far spread over it; then
// rounds, at least minRounds of them, run every cell again from a fresh
// process that finds the artifacts on disk and compile every cell in
// this process, until the run's time is up.
func runSuiteNative(b *benchRun) error {
	sw, err := b.newSide(true, false)
	if err != nil {
		return err
	}
	var keys []cellKey
	for _, p := range b.suite {
		keys = append(keys, nativeKeys(p.Name)...)
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	if err := sw.round(b); err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	// Warm passes over the cells built so far spread each cell's warm
	// samples over the run too; every rate and time takes a cell's
	// median, so cells built early do not weigh more.
	set, err := b.coldPass(keys, func(s *nativeSet, built int) error {
		if err := sw.round(b); err != nil || b.tr != nil {
			return err
		}
		return b.childPass(keys[:built], s.dir, false, s)
	})
	if err != nil {
		return err
	}
	rounds := minRounds
	if b.tr != nil {
		rounds = 1
	}
	for i := 0; i < rounds || (b.tr == nil && !b.expired()); i++ {
		if err := b.samplePeakRSS(); err != nil {
			return err
		}
		if err := sw.round(b); err != nil {
			return err
		}
		if err := set.round(b, true); err != nil {
			return err
		}
	}
	if err := b.samplePeakRSS(); err != nil {
		return err
	}
	set.sampleNative(b)
	set.sampleFlat(b)
	b.sampleRate("compile_klines_per_s", set.compile, 1e3)
	b.cycles = 1
	return nil
}

// scaleInput is a generated scale module and its edit of one seeded
// function.
type scaleInput struct {
	base, edit string
	lines      int
	// ref is the edit's IL compiled with no cache: what every warm
	// recompile must reproduce. It is made on first use.
	ref string
}

func newScaleInput(seed int64, funcs int) *scaleInput {
	i := rand.New(rand.NewSource(seed)).Intn(funcs)
	base := testgen.Scale(testgen.ScaleOptions{Seed: seed, Funcs: funcs, Edit: -1})
	return &scaleInput{
		base:  base,
		edit:  testgen.Scale(testgen.ScaleOptions{Seed: seed, Funcs: funcs, Edit: i}),
		lines: countLines(base),
	}
}

// recompile compiles in.base cold into a fresh analysis cache, compiles
// in.edit warm against it, and checks the warm IL against a compile of
// in.edit with no cache. It returns the cold and warm compile times,
// and false if a cell failed.
func (b *benchRun) recompile(in *scaleInput) (cold, warm time.Duration, ok bool) {
	st := &stores{parallel: cache.NewStore()}
	if b.tr != nil {
		st = newStores()
	}
	b.attempted += 2
	root := b.cellSpan("scale/cold")
	_, cold, err := b.compile("scale.c", in.base, scaleConfig, st, root)
	b.endSpan(root)
	if err != nil {
		b.fail("scale/cold", err)
		b.failed++ // the warm cell cannot run either
		return 0, 0, false
	}
	root = b.cellSpan("scale/warm")
	c, warm, err := b.compile("scale.c", in.edit, scaleConfig, st, root)
	b.endSpan(root)
	if err == nil && in.ref == "" {
		cfg := scaleConfig
		cfg.Workers = workers
		var scratch *driver.Compilation
		if scratch, err = driver.CompileSource("scale.c", in.edit, cfg); err == nil {
			in.ref = ir.FormatModule(scratch.Module)
		}
	}
	if err == nil && ir.FormatModule(c.Module) != in.ref {
		err = fmt.Errorf("warm IL differs from a compile with no cache")
	}
	if err != nil {
		b.fail("scale/warm", err)
		return 0, 0, false
	}
	return cold, warm, true
}

// nativeKeys lists a program's native cells.
func nativeKeys(prog string) []cellKey {
	var keys []cellKey
	for _, ci := range nativeConfigs {
		keys = append(keys, cellKey{prog, ci})
	}
	return keys
}

// programByName finds a suite program.
func (b *benchRun) programByName(name string) (bench.Program, bool) {
	for _, p := range b.suite {
		if p.Name == name {
			return p, true
		}
	}
	return bench.Program{}, false
}
