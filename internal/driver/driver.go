// Package driver assembles the compilation pipeline the paper
// evaluates (§5): front end → interprocedural analysis (MOD/REF alone,
// or points-to followed by a MOD/REF re-run) → value numbering,
// constant propagation, loop-invariant code motion → register
// promotion → partial redundancy elimination, dead-code elimination,
// basic-block cleaning → graph-coloring register allocation. The four
// experimental configurations are the cross product of
// {MOD/REF, points-to} × {promotion off, promotion on}.
//
// The pipeline is an explicit pass manager: each configuration expands
// to a named pass list (see Config.Passes), and an optional obs.Tracer
// records every stage it runs as a pass span carrying wall time,
// static IR snapshots, and pass statistics.
package driver

import (
	"fmt"
	"strings"
	"sync"

	"regpromo/internal/analysis/cache"
	"regpromo/internal/analysis/certify"
	"regpromo/internal/analysis/modref"
	"regpromo/internal/analysis/pointsto"
	"regpromo/internal/callgraph"
	"regpromo/internal/check"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/native"
	"regpromo/internal/obs"
	"regpromo/internal/opt/clean"
	"regpromo/internal/opt/constprop"
	"regpromo/internal/opt/copyprop"
	"regpromo/internal/opt/dce"
	"regpromo/internal/opt/dse"
	"regpromo/internal/opt/licm"
	"regpromo/internal/opt/pre"
	"regpromo/internal/opt/promote"
	"regpromo/internal/opt/valnum"
	"regpromo/internal/par"
	"regpromo/internal/regalloc"
)

// Analysis selects the interprocedural analysis (§4).
type Analysis int

const (
	// ModRef is interprocedural MOD/REF analysis alone.
	ModRef Analysis = iota
	// PointsTo runs the Ruf-style points-to analysis, refines the
	// memory operations, and repeats MOD/REF with the sharper sets.
	PointsTo
)

func (a Analysis) String() string {
	if a == PointsTo {
		return "pointer"
	}
	return "modref"
}

// CheckLevel selects how much of the internal/check lint registry
// Compile runs over its own output.
type CheckLevel int

const (
	// CheckOff runs no lint passes (the PassVerify structural check
	// still always runs).
	CheckOff CheckLevel = iota
	// CheckModule runs the full lint registry once, after the
	// pipeline finishes.
	CheckModule
	// CheckEveryPass runs the registry after the front end and again
	// after every pass, pinpointing the first pass that breaks an
	// invariant. Forces the serial pass walk: the pipelined middle
	// end never materializes whole-module pass boundaries.
	CheckEveryPass
)

func (l CheckLevel) String() string {
	switch l {
	case CheckModule:
		return "module"
	case CheckEveryPass:
		return "pass"
	}
	return "off"
}

// ParseCheckLevel maps the CLI spellings onto a CheckLevel.
func ParseCheckLevel(s string) (CheckLevel, error) {
	switch s {
	case "off", "":
		return CheckOff, nil
	case "module":
		return CheckModule, nil
	case "pass", "after-every-pass":
		return CheckEveryPass, nil
	}
	return CheckOff, fmt.Errorf("unknown check level %q (want off, module, or pass)", s)
}

// ParseCheck resolves the -check CLI flag: either a level — "off",
// "module", "pass" — or a comma list of individual lint-pass names
// from the check registry (e.g. "uninit,promoted" or "pressure"),
// which runs exactly those passes at the module boundary. Mirrors
// ParseEngines: the list is deduplicated in first-mention order and
// unknown names are rejected with the canonical diagnostic format
// (ir.Diag, check "check") so every CLI entry point prints the same
// line for the same typo.
func ParseCheck(spec string) (CheckLevel, []string, error) {
	switch spec {
	case "off", "":
		return CheckOff, nil, nil
	case "module":
		return CheckModule, nil, nil
	case "pass", "after-every-pass":
		return CheckEveryPass, nil, nil
	}
	var names []string
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if _, ok := check.Named(name); !ok {
			return CheckOff, nil, checkDiag(name)
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return CheckModule, names, nil
}

// checkDiag renders the canonical unknown-check-pass diagnostic.
func checkDiag(name string) error {
	return ir.DiagError([]ir.Diag{{
		Check: "check",
		Index: -1,
		Msg: `unknown check pass "` + name +
			`" (want off, module, pass, or a comma list of: ` + strings.Join(check.Names(), ", ") + `)`,
	}})
}

// CheckError reports lint violations found at a CheckLevel boundary,
// naming the stage after which the module first failed.
type CheckError struct {
	// Pass is the stage whose output is broken: a pass name,
	// PassFrontend, or "module" for the post-pipeline check.
	Pass string
	// Diags are all violations, in lint-registry order.
	Diags []ir.Diag
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("check failed after %s: %s", e.Pass, ir.DiagError(e.Diags))
}

// Config selects one compilation configuration.
type Config struct {
	Analysis Analysis

	// Promote enables scalar register promotion (§3.1).
	Promote bool
	// PointerPromote additionally enables §3.3 pointer-based
	// promotion (requires Promote).
	PointerPromote bool
	// SkipUnwrittenStores is the demotion-store refinement ablation
	// (see promote.Options).
	SkipUnwrittenStores bool

	// Throttle, when positive, bounds promotion per loop with the
	// Carr-style bin-packing discipline (§3.4); pass the machine's
	// register count. Zero reproduces the paper's unthrottled
	// promoter.
	Throttle int

	// DSE enables the tag-based dead-store-elimination extension
	// (§3.4's "stores" direction). Off in the paper's pipeline.
	DSE bool

	// DisableOpt skips the classical optimization passes, leaving
	// only analysis and (optionally) promotion. Used by tests.
	DisableOpt bool

	// NoAlloc skips register allocation (virtual registers remain).
	NoAlloc bool
	// K is the physical register count for allocation (default 32).
	K int

	// Workers bounds how many functions the per-function middle-end
	// passes process concurrently: 0 picks one worker per CPU, 1
	// compiles serially, larger values set the pool size directly.
	// The produced IL is identical at any setting.
	Workers int

	// Check selects how much of the internal/check lint registry to
	// run over the pipeline's own output; violations surface as a
	// *CheckError from Compile.
	Check CheckLevel

	// CheckPasses, when non-empty, restricts the lint registry runs to
	// the named passes (names from check.Names, validated by
	// ParseCheck). Empty runs the full core registry.
	CheckPasses []string

	// Certify re-proves every promotion certificate with the
	// independent region-soundness verifier (internal/analysis/certify)
	// at a pipeline barrier right after promotion. Refuted certificates
	// surface as a *CheckError naming PassCertify. No-op without
	// Promote.
	Certify bool

	// AnalysisCache, when non-nil, memoizes interprocedural analysis
	// across compilations: MOD/REF summaries per callgraph SCC and the
	// points-to narrowing per live-pointer projection. Share one store
	// across Frontends compiling successive versions of a module and a
	// one-function edit re-solves only the dirty components. Nil (the
	// default) analyzes from scratch every time.
	AnalysisCache *cache.Store
}

// AnalysisStats summarizes the incremental-analysis work a pipeline
// performed, summed over its analysis passes (MOD/REF runs once or —
// under PointsTo — twice, plus the points-to solve, which counts the
// whole module's components as cached when its projection hit).
type AnalysisStats struct {
	// SCCsSolved counts component fixpoints actually computed;
	// SCCsCached counts components replayed from Config.AnalysisCache.
	SCCsSolved, SCCsCached int
}

// Compilation is a compiled program plus pass statistics.
type Compilation struct {
	Module   *ir.Module
	Promote  promote.Stats
	Alloc    regalloc.Stats
	Analysis AnalysisStats

	// progs caches the module's flat-code lowering ([0] without
	// profiling markers, [1] with) so repeated executions of one
	// compilation — a benchmark matrix, a fuzz seed under several
	// engines — pay for lowering once. The cache is never invalidated:
	// a Compilation's module is not mutated after the pipeline
	// finishes. Not safe for concurrent Execute calls on one
	// Compilation; concurrent callers hold distinct Compilations.
	progs [2]*interp.Program

	// natives caches the module's built native artifacts ([0]
	// instrumented, [1] uninstrumented) the same way progs caches the
	// flat lowerings: the native build is content-addressed by
	// (generated source, toolchain), so within one Compilation the
	// artifact only depends on the instrumentation mode.
	natives [2]*native.Artifact

	// pressureByFunc holds the static register-pressure reports
	// measured right after promotion, keyed by function (only functions
	// with promotions appear). Read through Pressure.
	pressureByFunc map[string][]certify.Pressure
}

// Pressure returns the static register-pressure reports for every
// promotion site in the module, in function order (empty unless the
// configuration promoted something). Each report covers one landing
// pad; see certify.Pressure.
func (c *Compilation) Pressure() []certify.Pressure {
	if len(c.pressureByFunc) == 0 {
		return nil
	}
	var out []certify.Pressure
	for _, name := range c.Module.FuncOrder {
		out = append(out, c.pressureByFunc[name]...)
	}
	return out
}

// pass is one named stage of the pipeline, in exactly one form. run
// is a whole-module barrier (the interprocedural analyses, the
// certifier, the verifier). fn is a per-function pass: a maximal run
// of consecutive fn passes forms a group that the middle end executes
// function by function (each function walks the whole group before
// the next barrier). tags is the function's private spill-slot
// allocator, committed to the shared table in function order after
// the group. Both forms return the pass's extra statistics for the
// tracer (may be nil); fn's are per-function and sum over the module.
// finish, when non-nil, gives the module-wide extras instead, for a
// pass whose statistics do not all fold with +.
type pass struct {
	name   string
	run    func(s *pipeState) (map[string]int64, error)
	fn     func(s *pipeState, f *ir.Func, tags ir.TagAlloc) (map[string]int64, error)
	finish func(s *pipeState) map[string]int64
}

// pipeState is the mutable state threaded through the pass list. The
// mutex guards the Stats fields of c during parallel groups; both
// folds are commutative, so the accumulation order cannot show.
type pipeState struct {
	cfg Config
	c   *Compilation
	cg  *callgraph.Graph
	tr  *obs.Tracer // may be nil
	mu  sync.Mutex
}

// Canonical pass names, in the order the full pipeline runs them.
// PassValnumLate is the post-PRE value-numbering rerun.
const (
	PassModRef     = "modref"
	PassPointsTo   = "pointsto"
	PassRefine     = "refine"
	PassConstProp  = "constprop"
	PassValnum     = "valnum"
	PassLICM       = "licm"
	PassPromote    = "promote"
	PassCertify    = "certify"
	PassDSE        = "dse"
	PassPRE        = "pre"
	PassValnumLate = "valnum.post"
	PassCopyProp   = "copyprop"
	PassDCE        = "dce"
	PassClean      = "clean"
	PassRegalloc   = "regalloc"
	PassVerify     = "verify"
)

// passes expands the configuration into its pass list.
func (cfg Config) passes() []pass {
	// MOD/REF runs first and, under points-to, again after refine; the
	// first run builds the call graph, the second reuses the one refine
	// rebuilt.
	modRef := pass{name: PassModRef, run: func(s *pipeState) (map[string]int64, error) {
		if s.cg == nil {
			s.cg = callgraph.Build(s.c.Module)
		}
		res := modref.Analyze(s.c.Module, s.cg, cfg.AnalysisCache)
		s.c.Analysis.SCCsSolved += res.SCCsSolved
		s.c.Analysis.SCCsCached += res.SCCsCached
		return map[string]int64{
			"funcs":       int64(s.cg.NumFuncs()),
			"tags":        int64(s.c.Module.Tags.Len()),
			"sccs_solved": int64(res.SCCsSolved),
			"sccs_cached": int64(res.SCCsCached),
		}, nil
	}}
	ps := []pass{modRef}
	if cfg.Analysis == PointsTo {
		ps = append(ps, pass{name: PassPointsTo, run: func(s *pipeState) (map[string]int64, error) {
			m := s.c.Module
			res := pointsto.Solve(m, s.cg, cfg.AnalysisCache, pointsto.Options{})
			s.c.Analysis.SCCsSolved += res.SCCsSolved
			s.c.Analysis.SCCsCached += res.SCCsCached
			return map[string]int64{
				"steps":       int64(res.Steps),
				"tags":        int64(m.Tags.Len()),
				"sccs_solved": int64(res.SCCsSolved),
				"sccs_cached": int64(res.SCCsCached),
			}, nil
		}})
		ps = append(ps, pass{name: PassRefine, run: func(s *pipeState) (map[string]int64, error) {
			m := s.c.Module
			changed := modref.RefineMemOps(m)
			// Indirect-call targets may have been pinned; rebuild
			// the call graph so the repeated MOD/REF run sees the
			// refined edges (§4: "MOD/REF analysis is then
			// repeated").
			s.cg = callgraph.Build(m)
			return map[string]int64{"changed": int64(changed)}, nil
		}})
		ps = append(ps, modRef)
	}
	// The classical passes report how many rewrites they performed;
	// surface that as the pass's "changed" statistic.
	simple := func(name string, fn func(*ir.Func) int) pass {
		return pass{name: name, fn: func(_ *pipeState, f *ir.Func, _ ir.TagAlloc) (map[string]int64, error) {
			return map[string]int64{"changed": int64(fn(f))}, nil
		}}
	}
	if !cfg.DisableOpt {
		ps = append(ps,
			simple(PassConstProp, constprop.Func),
			simple(PassValnum, valnum.Func),
			simple(PassLICM, licm.Func),
		)
	}
	promoteOpts := promote.Options{
		Pointer:             cfg.PointerPromote,
		SkipUnwrittenStores: cfg.SkipUnwrittenStores,
		PressureLimit:       cfg.Throttle,
	}
	if cfg.Promote {
		ps = append(ps, pass{name: PassPromote, fn: func(s *pipeState, f *ir.Func, _ ir.TagAlloc) (map[string]int64, error) {
			st := promote.Func(s.c.Module, f, promoteOpts)
			// Static register pressure is measured right after the
			// function is promoted: the regions' PromotedReg names are
			// still virtual and the promoted copies have not yet been
			// coalesced away, so the count reflects the promoter's own
			// demand (the quantity the paper's water anecdote is about).
			reports := certify.MeasurePressure(f, st.Regions, cfg.K)
			s.mu.Lock()
			s.c.Promote.Add(st)
			if len(reports) > 0 {
				if s.c.pressureByFunc == nil {
					s.c.pressureByFunc = make(map[string][]certify.Pressure)
				}
				s.c.pressureByFunc[f.Name] = reports
			}
			s.mu.Unlock()
			return map[string]int64{
				"scalar_promotions":  int64(st.ScalarPromotions),
				"pointer_promotions": int64(st.PointerPromotions),
				"refs_rewritten":     int64(st.RefsRewritten),
				"loads_inserted":     int64(st.LoadsInserted),
				"stores_inserted":    int64(st.StoresInserted),
			}, nil
		}})
		if cfg.Certify {
			// A barrier: the verifier needs every function's
			// certificates and the whole module's call structure.
			ps = append(ps, pass{name: PassCertify, run: func(s *pipeState) (map[string]int64, error) {
				sum := certify.Verify(s.c.Module, s.c.Promote.Regions)
				extras := map[string]int64{
					"regions":    int64(sum.Regions),
					"proved":     int64(sum.Proved),
					"unproven":   int64(sum.Unproven),
					"violations": int64(sum.Violations),
				}
				if len(sum.Diags) > 0 {
					return extras, &CheckError{Pass: PassCertify, Diags: sum.Diags}
				}
				return extras, nil
			}})
		}
	}
	if cfg.DSE {
		ps = append(ps, pass{name: PassDSE, fn: func(s *pipeState, f *ir.Func, _ ir.TagAlloc) (map[string]int64, error) {
			return map[string]int64{"changed": int64(dse.Func(s.c.Module, f))}, nil
		}})
	}
	if !cfg.DisableOpt {
		ps = append(ps,
			simple(PassPRE, pre.Func),
			simple(PassValnumLate, valnum.Func),
			simple(PassCopyProp, copyprop.Func),
			simple(PassDCE, dce.Func),
			simple(PassClean, clean.Func),
		)
	}
	allocExtras := func(st regalloc.Stats) map[string]int64 {
		return map[string]int64{
			"spilled":      int64(st.Spilled),
			"spill_loads":  int64(st.SpillLoads),
			"spill_stores": int64(st.SpillStores),
			"coalesced":    int64(st.Coalesced),
			"rounds":       int64(st.Rounds),
			"max_live":     int64(st.MaxLive),
		}
	}
	if !cfg.NoAlloc {
		ps = append(ps, pass{
			name: PassRegalloc,
			fn: func(s *pipeState, f *ir.Func, tags ir.TagAlloc) (map[string]int64, error) {
				st, err := regalloc.Func(f, regalloc.Options{K: s.cfg.K}, tags)
				if err != nil {
					return nil, err
				}
				s.mu.Lock()
				s.c.Alloc.Add(st)
				s.mu.Unlock()
				return allocExtras(st), nil
			},
			// Rounds and MaxLive fold with max across functions.
			finish: func(s *pipeState) map[string]int64 { return allocExtras(s.c.Alloc) },
		})
	}
	ps = append(ps, pass{name: PassVerify, run: func(s *pipeState) (map[string]int64, error) {
		if err := ir.VerifyModule(s.c.Module); err != nil {
			return nil, fmt.Errorf("pipeline produced invalid IL: %w", err)
		}
		return nil, nil
	}})
	return ps
}

// Passes returns the configuration's pass names in execution order
// (the front end, which runs before the module exists, is reported by
// the tracer as "frontend" ahead of these).
func (cfg Config) Passes() []string {
	ps := cfg.passes()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}

// PassFrontend is the pass name of the parse+sema+irgen stage.
const PassFrontend = "frontend"

// CompileSource runs the full pipeline over one C source file.
func CompileSource(filename, src string, cfg Config) (*Compilation, error) {
	return Compile(filename, src, cfg, nil)
}

// Compile runs the full pipeline under a tracer. tr may be nil, in
// which case no telemetry is recorded (identical to CompileSource).
// Every pass — including the front end, reported as "frontend" at
// index 0 — is recorded as a pass span; tr.Passes() folds them into
// one row per pass.
//
// To compile one source under several configurations, run the front
// end once with ParseSource and fork each pipeline with
// Frontend.Compile instead.
func Compile(filename, src string, cfg Config, tr *obs.Tracer) (*Compilation, error) {
	sp := tr.Start("compile", "compile", 0)
	defer sp.End()
	// Single-use compile: the pipeline owns the module outright, so no
	// clone is forked.
	s := &pipeState{cfg: cfg, c: &Compilation{}, tr: tr}
	if err := s.stage(PassFrontend, 0, func() (map[string]int64, error) {
		m, err := frontend(filename, src)
		s.c.Module = m
		return nil, err
	}); err != nil {
		return nil, err
	}
	return s.compilePasses()
}

// stage runs one whole-module stage as pipeline pass index. With a
// tracer it is a pass span on the coordinating thread, bracketed by
// module snapshots taken outside the span's clock.
func (s *pipeState) stage(name string, index int, run func() (map[string]int64, error)) error {
	if s.tr == nil {
		if _, err := run(); err != nil {
			return err
		}
		countPasses(1)
		return nil
	}
	before := obs.Measure(s.c.Module)
	sp := s.tr.Start(name, "pass", 0)
	extra, err := run()
	sp = sp.Stop().AddArgs(extra)
	if err != nil {
		sp.End()
		return err
	}
	m := s.c.Module
	sp.Pass(obs.PassAttrs{Index: index, Before: before, After: obs.Measure(m), IRDump: s.tr.DumpIR(name, m)}).End()
	countPasses(1)
	return nil
}

// countPasses adds n completed passes to the compile.passes metric.
func countPasses(n int) {
	if r := obs.Metrics(); r != nil {
		r.Counter("compile.passes").Add(int64(n))
	}
}

// compilePasses runs cfg's pass list over c.Module, numbering the
// passes from 1 (index 0 is the front-end stage).
//
// Consecutive per-function passes are batched into maximal groups and
// distributed across functions by the parallel middle end; the
// interprocedural analyses and the verifier stay whole-module
// barriers between groups. Three situations force the serial walk,
// where each per-function pass is a one-pass group run in function
// order: Workers == 1 (the caller asked for it), CheckEveryPass, and
// a tracer that wants IL dumps. The last two need the whole module
// parked at every pass boundary, a state pipelined execution never
// materializes.
func (s *pipeState) compilePasses() (*Compilation, error) {
	cfg, c := s.cfg, s.c
	if r := obs.Metrics(); r != nil {
		r.Counter("compile.compiles").Inc()
		r.Counter("compile.functions").Add(int64(len(c.Module.FuncOrder)))
	}
	s.tr.NameThread(0, "main")
	ps := cfg.passes()
	serial := cfg.Workers == 1 || cfg.Check == CheckEveryPass ||
		(s.tr != nil && s.tr.DumpPass != "")
	workers := cfg.Workers
	if serial {
		workers = 1
	}
	analysisDone := false
	if cfg.Check == CheckEveryPass {
		// Lint the front end's output before any pass touches it.
		if err := s.runChecks(PassFrontend, false); err != nil {
			return nil, err
		}
	}
	for i := 0; i < len(ps); {
		j := i + 1
		var err error
		if ps[i].fn == nil {
			run := ps[i].run
			err = s.stage(ps[i].name, i+1, func() (map[string]int64, error) { return run(s) })
		} else {
			for !serial && j < len(ps) && ps[j].fn != nil {
				j++
			}
			err = s.runGroup(i+1, ps[i:j], workers)
		}
		if err != nil {
			return nil, err
		}
		if ps[i].name == PassModRef {
			analysisDone = true
		}
		if cfg.Check == CheckEveryPass {
			if err := s.runChecks(ps[i].name, analysisDone); err != nil {
				return nil, err
			}
		}
		i = j
	}
	if cfg.Check == CheckModule {
		if err := s.runChecks("module", true); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// runChecks runs the internal/check lint registry over the module's
// current state, reporting violations as a *CheckError that names the
// stage whose output is broken.
func (s *pipeState) runChecks(stage string, analysisDone bool) error {
	ctx := &check.Context{
		Module:       s.c.Module,
		AnalysisDone: analysisDone,
		Regions:      s.c.Promote.Regions,
		Pressure:     s.c.Pressure(),
	}
	var ds []ir.Diag
	if len(s.cfg.CheckPasses) > 0 {
		ds = check.Selected(ctx, s.cfg.CheckPasses)
	} else {
		ds = check.Module(ctx)
	}
	if len(ds) > 0 {
		return &CheckError{Pass: stage, Diags: ds}
	}
	return nil
}

// runGroup executes a run of per-function passes, numbered from
// first, across the module's functions on up to workers goroutines.
// Each function walks the whole group — function A can be in regalloc
// while function B is still in constprop — so the group's wall time is
// bounded by the slowest function, not by the slowest pass.
//
// Determinism: the passes in a group only read shared state (the tag
// table, call-graph summaries baked into instructions) and mutate
// their own function, so the produced IL is bit-identical to a serial
// run. Spill-slot tags would be allocated from the shared table in
// racy order; instead each function stages its tags privately
// (ir.StagedTags) and the stagings are committed in function order
// afterwards, reproducing the serial numbering. Under a tracer each
// function's pass runs in its own pass span bracketed by that
// function's snapshots, and once the group is done each pass gets a
// summary span on the coordinating thread; Tracer.Passes folds them
// back into one row per pass.
func (s *pipeState) runGroup(first int, group []pass, workers int) error {
	m := s.c.Module
	fns := m.FuncsInOrder()
	staged := make([]*ir.StagedTags, len(fns))
	tr := s.tr
	if _, err := par.ParallelMapWorker(len(fns), workers, func(worker, i int) (struct{}, error) {
		fn := fns[i]
		st := &ir.StagedTags{}
		staged[i] = st
		if tr == nil {
			for _, p := range group {
				if _, err := p.fn(s, fn, st); err != nil {
					return struct{}{}, err
				}
			}
			return struct{}{}, nil
		}
		// Middle-end work items are attributed to logical thread
		// worker+1 (tid 0 is the coordinating goroutine).
		tid := worker + 1
		tr.NameThread(tid, fmt.Sprintf("worker %d", worker))
		fsp := tr.Start(fn.Name, "middleend", tid).Arg("worker", int64(worker))
		for j, p := range group {
			before := obs.MeasureFunc(fn)
			sp := tr.Start(p.name, "pass", tid).Label("func", fn.Name)
			extra, err := p.fn(s, fn, st)
			sp = sp.Stop().AddArgs(extra)
			if err != nil {
				sp.End()
				return struct{}{}, err
			}
			sp.Pass(obs.PassAttrs{Index: first + j, Before: before, After: obs.MeasureFunc(fn)}).End()
		}
		fsp.End()
		return struct{}{}, nil
	}); err != nil {
		return err
	}

	// Commit staged spill tags in function order: the replay hands out
	// exactly the ids a serial compile would have, then the function's
	// provisional references are rewritten to them.
	for i, fn := range fns {
		if staged[i].Empty() {
			continue
		}
		commitStagedTags(fn, staged[i], &m.Tags)
	}
	countPasses(len(group))
	if tr != nil {
		for j, p := range group {
			sp := tr.Start(p.name, "pass", 0)
			if p.finish != nil {
				sp = sp.AddArgs(p.finish(s))
			}
			sp.Pass(obs.PassAttrs{Index: first + j, Summary: true, IRDump: tr.DumpIR(p.name, m)}).End()
		}
	}
	return nil
}

// commitStagedTags replays fn's staged tag creations into the shared
// table and rewrites the function's provisional tag ids (spill-slot
// references and frame-local entries) to the real ones.
func commitStagedTags(fn *ir.Func, staged *ir.StagedTags, tags *ir.TagTable) {
	remap := staged.Commit(tags)
	for i, t := range fn.Locals {
		if id, ok := remap[t]; ok {
			fn.Locals[i] = id
		}
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if id, ok := remap[b.Instrs[i].Tag]; ok {
				b.Instrs[i].Tag = id
			}
		}
	}
}

// Execute runs a compiled program under the engine named in opts.
// Flat-engine runs lower the module to flat code on first use and
// reuse the lowering afterwards; native runs additionally build (or
// reuse, via the content-addressed cache) a machine-code artifact.
func (c *Compilation) Execute(opts interp.Options) (*interp.Result, error) {
	switch opts.Engine {
	case interp.EngineSwitch:
		return interp.Run(c.Module, opts)
	case interp.EngineNative:
		a, err := c.nativeArtifact(opts)
		if err != nil {
			return nil, err
		}
		return a.Run(opts)
	}
	return c.flatProgram(opts.Profile).Run(opts)
}

// PrepareEngine performs the engine's one-time setup — flat-code
// lowering, native artifact build — without running the program, so
// callers that time executions (the benchmark harness) can keep build
// cost out of the measurement window. Preparing the switch engine is
// a no-op.
func (c *Compilation) PrepareEngine(opts interp.Options) error {
	switch opts.Engine {
	case interp.EngineSwitch:
		return nil
	case interp.EngineNative:
		_, err := c.nativeArtifact(opts)
		return err
	}
	c.flatProgram(opts.Profile)
	return nil
}

// flatProgram returns the cached flat lowering for the profiling
// mode, lowering on first use.
func (c *Compilation) flatProgram(profile bool) *interp.Program {
	idx := 0
	if profile {
		idx = 1
	}
	if c.progs[idx] == nil {
		c.progs[idx] = interp.Flatten(c.Module, profile)
	}
	return c.progs[idx]
}

// nativeArtifact returns the cached native build for the
// instrumentation mode opts selects, building on first use. The
// source is always generated from the unprofiled flat program — the
// native engine rejects profiling in Run, so the profiled lowering
// never feeds codegen.
func (c *Compilation) nativeArtifact(opts interp.Options) (*native.Artifact, error) {
	instrument := !opts.NoCounts
	idx := 0
	if !instrument {
		idx = 1
	}
	if c.natives[idx] == nil {
		a, err := native.Build(c.flatProgram(false), instrument, native.Options{})
		if err != nil {
			return nil, err
		}
		c.natives[idx] = a
	}
	return c.natives[idx], nil
}

// Configurations returns the paper's four measurement configurations
// in presentation order: without/with promotion under MOD/REF, then
// without/with promotion under points-to.
func Configurations() []Config {
	return []Config{
		{Analysis: ModRef, Promote: false},
		{Analysis: ModRef, Promote: true},
		{Analysis: PointsTo, Promote: false},
		{Analysis: PointsTo, Promote: true},
	}
}

// NamedConfig pairs a configuration with a stable display name, for
// matrices (differential testing, reports) that must label their
// columns.
type NamedConfig struct {
	Name   string
	Config Config
}

// DifferentialConfigurations enumerates the pipeline configurations
// the differential tester (internal/difftest) compares. The first
// entry is the reference: classical optimizations disabled and
// virtual registers kept, i.e. the straightest lowering of the source
// semantics. Every other configuration must produce the same
// observable behaviour; any disagreement is a miscompilation by
// construction. short trims the matrix to the reference plus the
// paper's three measured pipelines, for quick CI smoke runs.
func DifferentialConfigurations(short bool) []NamedConfig {
	ncs := []NamedConfig{
		{"ref-noopt", Config{Analysis: ModRef, DisableOpt: true, NoAlloc: true}},
		{"baseline", Config{Analysis: ModRef}},
		{"promote-modref", Config{Analysis: ModRef, Promote: true}},
		{"promote-pointer", Config{Analysis: PointsTo, Promote: true, PointerPromote: true}},
	}
	if short {
		return ncs
	}
	return append(ncs,
		// §3.3 promotion with the demotion-store ablation.
		NamedConfig{"promote-skipunwritten", Config{Analysis: PointsTo, Promote: true, PointerPromote: true, SkipUnwrittenStores: true}},
		// Promotion plus the tag-based dead-store-elimination
		// extension (off in the paper's pipeline, so it only ever
		// runs against the others here).
		NamedConfig{"promote-dse", Config{Analysis: PointsTo, Promote: true, PointerPromote: true, DSE: true}},
		// Throttled promotion under a scarce register supply forces
		// the allocator's spill paths into the comparison.
		NamedConfig{"promote-throttle-k8", Config{Analysis: ModRef, Promote: true, Throttle: 8, K: 8}},
	)
}
