// Package difftest is the compiler's differential-testing subsystem:
// a standing correctness gate behind every measurement the paper's
// figures make. For each seed it generates a deterministic, UB-free C
// program (internal/testgen), compiles it under every pipeline
// configuration the evaluation compares (driver.
// DifferentialConfigurations: the no-opt reference, the baseline
// optimizer, scalar and pointer promotion under both analyses, the
// §3.3/§3.4 variants), executes each compilation in the instrumented
// interpreter, and compares observable behaviour — printed output and
// exit code. The generator rules out undefined behaviour by
// construction, so any divergence is a compiler bug, full stop.
//
// That cross-configuration diff always runs. A set of Oracles adds
// further checks on the same seed: switch and native execute every
// compilation on that engine too and hold it to the flat engine's
// output, exit, error text and dynamic counts (a native run is a
// translation-validation check of the codegen); sanitize runs every
// execution under the analysis-soundness sanitizer; certify re-proves
// every promotion certificate with the independent region-soundness
// verifier; incremental recompiles a one-unit edit of the seed warm
// against a populated analysis cache and demands the IL of a scratch
// compile (IncrementalSeed).
//
// When a seed diverges, the package shrinks it with a delta-debugging
// reducer (Reduce) that removes generated statements and helper
// functions while the divergence still reproduces, then writes a
// self-contained failure artifact — original and reduced C source,
// the final IL of every configuration, and a repro command — under a
// corpus directory (WriteArtifacts). Fuzz drives the whole loop
// across a seed range on the shared worker pool (internal/par);
// cmd/rpfuzz is its CLI:
//
//	go run ./cmd/rpfuzz -seeds 200 -short -oracles all
package difftest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
	"regpromo/internal/par"
	"regpromo/internal/testgen"
)

// MaxSteps bounds each interpreted execution. Generated programs are
// small and their loops statically bounded, so any run this long is a
// termination bug; the bound is shared by every configuration so a
// uniform timeout cannot masquerade as a divergence.
const MaxSteps = 1 << 28

// Oracles is a set of the checks a differential run makes beside the
// cross-configuration diff, which always runs.
type Oracles uint8

// The oracles, in the order String lists them.
const (
	// Switch and Native execute every compilation on that engine as
	// well and hold it to the flat engine's output, exit, error text
	// and dynamic counts.
	Switch Oracles = 1 << iota
	Native
	// Sanitize runs every interpreted execution under the
	// analysis-soundness sanitizer: an access outside the static
	// MOD/REF or points-to sets fires it.
	Sanitize
	// Certify re-proves every promotion certificate; a refuted one
	// fails the compile.
	Certify
	// Incremental is the analysis-cache oracle (IncrementalSeed). It
	// needs a seed, so only DiffSeed runs it.
	Incremental

	AllOracles = Switch | Native | Sanitize | Certify | Incremental
)

// oracleNames are the -oracles names, indexed by bit position.
var oracleNames = [...]string{
	interp.EngineSwitch.String(), interp.EngineNative.String(), "sanitize", "certify", "incremental",
}

// String renders the set as the comma list ParseOracles reads back.
func (o Oracles) String() string {
	var names []string
	for i, name := range oracleNames {
		if o&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
}

// ParseOracles resolves the rpfuzz -oracles flag: a comma list of
// oracle names, or "all". Engine oracles are named by their engine
// and resolved by driver.ParseEngine (flat is the primary every other
// engine is compared against, not an oracle). Duplicates collapse and
// the empty list is the empty set. An unknown name is rejected with
// the canonical [oracle] diagnostic, as ParseEngines and ParseCheck
// reject theirs.
func ParseOracles(spec string) (Oracles, error) {
	var set Oracles
	if spec == "" {
		return set, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		o := oracleNamed(name)
		if o == 0 {
			return 0, ir.DiagError([]ir.Diag{{
				Check: "oracle",
				Index: -1,
				Msg:   `unknown oracle "` + name + `" (want ` + strings.Join(oracleNames[:], ", ") + `, or all)`,
			}})
		}
		set |= o
	}
	return set, nil
}

// oracleNamed resolves one -oracles name, or returns 0.
func oracleNamed(name string) Oracles {
	if name == "all" {
		return AllOracles
	}
	if e, err := driver.ParseEngine(name); err == nil && name != "" {
		return engineOracle(e)
	}
	for o := Sanitize; o <= Incremental; o <<= 1 {
		if o.String() == name {
			return o
		}
	}
	return 0
}

// engineOracle is the oracle that runs engine e (0 for flat).
func engineOracle(e interp.Engine) Oracles {
	switch e {
	case interp.EngineSwitch:
		return Switch
	case interp.EngineNative:
		return Native
	}
	return 0
}

// Execution is one configuration's observable outcome on a program.
type Execution struct {
	Config driver.NamedConfig
	// Output and Exit are the program's observable behaviour; Err is
	// set instead when compilation or execution failed.
	Output string
	Exit   int64
	Err    error
	// Counts are the dynamic execution counters. They differ across
	// configurations by design (that difference is the paper's
	// result), so the cross-configuration comparison ignores them —
	// but across engines on the same compilation they must be
	// byte-identical, and the engine oracles enforce that.
	Counts interp.Counts
	// Checked is the set of oracles that examined this execution and
	// Fired the subset that flagged it: each oracle's typed verdict.
	Checked, Fired Oracles
	// Findings describe the engine and sanitizer verdicts, one line
	// each. A refuted certificate shows in Err (the compile fails);
	// the incremental oracle reports through Result.Incremental.
	Findings []string
}

// Behaviour renders the outcome as a comparable string: diverging
// behaviours compare unequal, identical ones equal.
func (e *Execution) Behaviour() string {
	if e.Err != nil {
		return "error: " + e.Err.Error()
	}
	return fmt.Sprintf("exit=%d output=%q", e.Exit, e.Output)
}

// flag records that oracle o fired on the execution.
func (e *Execution) flag(o Oracles, finding string) {
	e.Fired |= o
	e.Findings = append(e.Findings, finding)
}

// Result is the differential verdict on one program.
type Result struct {
	Seed   int64
	Source string
	// Oracles is the set the result was computed under.
	Oracles Oracles
	Execs   []Execution
	// Incremental is the incremental oracle's verdict, when it ran.
	Incremental *IncrementalResult
}

// Divergence describes how the configurations disagree and what every
// oracle found, or returns "" when all is well. The first
// configuration (the no-opt reference) is the anchor every other
// configuration is compared against.
func (r *Result) Divergence() string {
	div := r.sourceDivergence()
	if r.Incremental != nil {
		div += r.Incremental.Divergence
	}
	return div
}

// sourceDivergence is the part of the verdict DiffSource reproduces
// from the program text alone: everything but the incremental oracle.
func (r *Result) sourceDivergence() string {
	var sb strings.Builder
	for i := range r.Execs {
		e, ref := &r.Execs[i], &r.Execs[0]
		if b := e.Behaviour(); i > 0 && b != ref.Behaviour() {
			fmt.Fprintf(&sb, "%s: %s\n  (reference %s: %s)\n",
				e.Config.Name, b, ref.Config.Name, ref.Behaviour())
		}
		for _, f := range e.Findings {
			fmt.Fprintf(&sb, "%s: %s\n", e.Config.Name, f)
		}
	}
	return sb.String()
}

// Diverged reports whether any configuration disagrees with the
// reference or any oracle fired.
func (r *Result) Diverged() bool { return r.Divergence() != "" }

// Fired is the set of oracles that flagged any execution.
func (r *Result) Fired() Oracles {
	var o Oracles
	for i := range r.Execs {
		o |= r.Execs[i].Fired
	}
	return o
}

// DiffSource compiles and executes src under every configuration of
// the matrix on the flat engine, with the given oracles. The front end
// runs once; every configuration's pipeline is forked from the shared
// artifact (compile-once sharing). The Incremental oracle needs a
// seed and is skipped here.
func DiffSource(filename, src string, matrix []driver.NamedConfig, oracles Oracles) *Result {
	r := &Result{Source: src, Oracles: oracles}
	fe, feErr := driver.ParseSource(filename, src)
	for _, nc := range matrix {
		if feErr != nil {
			// A front-end failure hits every configuration identically,
			// exactly as per-configuration recompiles would see it.
			r.Execs = append(r.Execs, Execution{Config: nc, Err: fmt.Errorf("compile: %w", feErr)})
			continue
		}
		r.Execs = append(r.Execs, runOne(fe, nc, oracles))
	}
	return r
}

// DiffSeed generates the seed's program and diffs it under the given
// oracles, the incremental one included.
func DiffSeed(seed int64, matrix []driver.NamedConfig, oracles Oracles) *Result {
	r := DiffSource(fmt.Sprintf("seed%d.c", seed), testgen.Program(seed), matrix, oracles)
	r.Seed = seed
	if oracles&Incremental != 0 {
		r.Incremental = IncrementalSeed(seed, matrix)
		for i := range r.Execs {
			e := &r.Execs[i]
			e.Checked |= Incremental
			if slices.Contains(r.Incremental.Failed, e.Config.Name) {
				e.Fired |= Incremental
			}
		}
	}
	return r
}

func runOne(fe *driver.Frontend, nc driver.NamedConfig, oracles Oracles) Execution {
	e := Execution{Config: nc}
	cfg := nc.Config
	if oracles&Certify != 0 {
		cfg.Certify = true
		e.Checked |= Certify
	}
	c, err := fe.Compile(cfg, nil)
	if err != nil {
		var ce *driver.CheckError
		if errors.As(err, &ce) && ce.Pass == driver.PassCertify {
			e.Fired |= Certify
		}
		e.Err = fmt.Errorf("compile: %w", err)
		return e
	}
	opts := interp.Options{MaxSteps: MaxSteps, Engine: interp.EngineFlat, Sanitize: oracles&Sanitize != 0}
	res, rerr := c.Execute(opts)
	if rerr != nil {
		e.Err = fmt.Errorf("execute: %w", rerr)
	} else {
		e.Output, e.Exit, e.Counts = res.Output, res.Exit, res.Counts
	}
	if opts.Sanitize {
		e.Checked |= Sanitize
		if rerr == nil && len(res.Violations) > 0 {
			e.flag(Sanitize, fmt.Sprintf("sanitizer: %d violation(s): %s",
				len(res.Violations), strings.Join(diagStrings(res.Violations), "; ")))
		}
	}
	for _, eng := range []interp.Engine{interp.EngineSwitch, interp.EngineNative} {
		o := engineOracle(eng)
		if oracles&o == 0 {
			continue
		}
		e.Checked |= o
		eopts := opts
		eopts.Engine = eng
		// The sanitizer is interpreter-only; the native engine is
		// still held to output/exit/error/count parity.
		eopts.Sanitize = opts.Sanitize && eng != interp.EngineNative
		sres, serr := c.Execute(eopts)
		if msg := engineMismatch(eng, res, rerr, sres, serr); msg != "" {
			e.flag(o, "engine divergence: "+msg)
		}
	}
	return e
}

// engineMismatch compares engine eng's run of a compilation with the
// flat engine's and describes the first disagreement, or returns "".
func engineMismatch(eng interp.Engine, res *interp.Result, rerr error, sres *interp.Result, serr error) string {
	switch {
	case rerr != nil && serr != nil:
		// Both engines failed: the error text must match exactly, or
		// the engines disagree about how the program goes wrong.
		if rerr.Error() != serr.Error() {
			return fmt.Sprintf("flat error %q, %s error %q", rerr, eng, serr)
		}
	case rerr != nil || serr != nil:
		return fmt.Sprintf("flat err=%v, %s err=%v", rerr, eng, serr)
	case res.Output != sres.Output || res.Exit != sres.Exit || res.Counts != sres.Counts:
		return fmt.Sprintf("flat exit=%d counts=%+v output=%q; %s exit=%d counts=%+v output=%q",
			res.Exit, res.Counts, res.Output, eng, sres.Exit, sres.Counts, sres.Output)
	case eng != interp.EngineNative && !slices.Equal(res.Violations, sres.Violations):
		// Both interpreter engines observe execution in the same
		// order, so their violation lists must match exactly.
		return fmt.Sprintf("flat violations %q, %s violations %q",
			diagStrings(res.Violations), eng, diagStrings(sres.Violations))
	}
	return ""
}

// diagStrings renders a violation list in its stable string form,
// truncated for reporting.
func diagStrings(ds []ir.Diag) []string {
	out := make([]string, 0, len(ds))
	for i, d := range ds {
		if i == 5 {
			out = append(out, fmt.Sprintf("… %d more", len(ds)-i))
			break
		}
		out = append(out, d.String())
	}
	return out
}

// Tally is the running account of a fuzz run: seeds done, seeds that
// diverged, and per oracle (indexed by bit position) how many
// executions it checked and how many of those it fired on.
type Tally struct {
	Oracles            Oracles
	Seeds, Divergences int64
	Checks, Fired      [len(oracleNames)]int64
}

// add accounts one seed's result.
func (t *Tally) add(r *Result, diverged bool) {
	t.Seeds++
	if diverged {
		t.Divergences++
	}
	for i := range r.Execs {
		e := &r.Execs[i]
		for b := range oracleNames {
			if e.Checked&(1<<b) != 0 {
				t.Checks[b]++
			}
			if e.Fired&(1<<b) != 0 {
				t.Fired[b]++
			}
		}
	}
}

// String renders the divergence count and each oracle's checks and
// firings, e.g. "0 divergences; checks (fired): sanitize 800 (0)".
func (t Tally) String() string {
	s := fmt.Sprintf("%d divergences", t.Divergences)
	sep := "; checks (fired): "
	for b, name := range oracleNames {
		if t.Oracles&(1<<b) != 0 {
			s += fmt.Sprintf("%s%s %d (%d)", sep, name, t.Checks[b], t.Fired[b])
			sep = ", "
		}
	}
	return s
}

// Failure is one divergent seed with its reduction and artifact
// location.
type Failure struct {
	Seed       int64
	Divergence string
	// Fired is the set of oracles that flagged the seed (empty for a
	// pure cross-configuration divergence).
	Fired Oracles
	// Reduced is the shrunk source (equal to the original when
	// reduction was disabled or could not shrink it).
	Reduced string
	// Units counts the generated units kept in the reduced program.
	Units int
	// Dir is the corpus directory the artifact was written to (empty
	// when no corpus was requested).
	Dir string
}

// FuzzOptions configure a fuzzing run.
type FuzzOptions struct {
	// Start is the first seed; Seeds is how many consecutive seeds to
	// test.
	Start, Seeds int64
	// Parallel bounds concurrent seeds (<=0 means one worker per
	// CPU).
	Parallel int
	// Short trims the configuration matrix for smoke runs.
	Short bool
	// Oracles are the checks every seed gets beside the
	// cross-configuration diff.
	Oracles Oracles
	// Reduce shrinks each failing program before reporting it.
	Reduce bool
	// CorpusDir, when non-empty, receives a failure artifact per
	// divergent seed.
	CorpusDir string
	// Progress, when non-nil, is called after each seed completes
	// (from worker goroutines, possibly out of order) with the run's
	// tally so far; each call sees a distinct sofar.Seeds.
	Progress func(seed int64, diverged bool, sofar Tally)
}

// FuzzReport summarizes a fuzzing run.
type FuzzReport struct {
	Tally
	Matrix   []driver.NamedConfig
	Failures []Failure
}

// Fuzz differentially tests Seeds consecutive seeds under the chosen
// oracles and reports every divergence, reduced and archived according
// to the options. The seed loop runs on the shared worker pool (par);
// failures are reported in seed order regardless of schedule. The
// error return is for infrastructure problems (unwritable corpus);
// divergences are data, not errors.
func Fuzz(opts FuzzOptions) (*FuzzReport, error) {
	matrix := driver.DifferentialConfigurations(opts.Short)
	report := &FuzzReport{Tally: Tally{Oracles: opts.Oracles}, Matrix: matrix}
	var mu sync.Mutex
	fails, err := par.ParallelMap(int(opts.Seeds), opts.Parallel, func(i int) (*Failure, error) {
		seed := opts.Start + int64(i)
		r := DiffSeed(seed, matrix, opts.Oracles)
		div := r.Divergence()
		mu.Lock()
		report.add(r, div != "")
		sofar := report.Tally
		mu.Unlock()
		if opts.Progress != nil {
			opts.Progress(seed, div != "", sofar)
		}
		countMetrics(r, div != "")
		if div == "" {
			return nil, nil
		}
		f := &Failure{Seed: seed, Divergence: div, Fired: r.Fired(), Reduced: r.Source, Units: testgen.Units(seed)}
		// The reducer re-runs only the source-level oracles that fired;
		// a divergence the incremental oracle alone found is archived
		// unreduced.
		if opts.Reduce && r.sourceDivergence() != "" {
			f.Reduced, f.Units = Reduce(seed, func(src string) bool {
				return DiffSource(fmt.Sprintf("seed%d.c", seed), src, matrix, f.Fired&^Incremental).Diverged()
			})
		}
		if opts.CorpusDir != "" {
			dir, err := WriteArtifacts(opts.CorpusDir, r, f.Reduced)
			if err != nil {
				return nil, err
			}
			f.Dir = dir
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fails {
		if f != nil {
			report.Failures = append(report.Failures, *f)
		}
	}
	return report, nil
}

// countMetrics reports one seed into the process metrics registry:
// difftest.seeds, difftest.divergences, and difftest.<oracle>.checks
// and .fired for every oracle the seed ran.
func countMetrics(r *Result, diverged bool) {
	reg := obs.Metrics()
	if reg == nil {
		return
	}
	var t Tally
	t.add(r, diverged)
	reg.Counter("difftest.seeds").Inc()
	reg.Counter("difftest.divergences").Add(t.Divergences)
	for b, name := range oracleNames {
		if r.Oracles&(1<<b) != 0 {
			reg.Counter("difftest." + name + ".checks").Add(t.Checks[b])
			reg.Counter("difftest." + name + ".fired").Add(t.Fired[b])
		}
	}
}

// WriteArtifacts archives a divergent result under dir/seed<NNN>:
// the generating source (prog.c), the reduced reproducer (reduced.c),
// the divergence summary with a repro command naming the run's
// oracles (repro.txt), and the final IL of each configuration
// (il-<config>.txt). When the
// incremental oracle fired, both program variants (base.c, mutated.c)
// and the first diverging IL pair (il-warm.txt, il-scratch.txt) join
// them. It returns the artifact directory.
func WriteArtifacts(dir string, r *Result, reduced string) (string, error) {
	sub := filepath.Join(dir, fmt.Sprintf("seed%d", r.Seed))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	files := map[string]string{"prog.c": r.Source, "reduced.c": reduced}
	if inc := r.Incremental; inc != nil && inc.Diverged() {
		files["base.c"], files["mutated.c"] = inc.Base, inc.Mutated
		files["il-warm.txt"], files["il-scratch.txt"] = inc.WarmIL, inc.ScratchIL
	}
	cmd := fmt.Sprintf("go run ./cmd/rpfuzz -start %d -seeds 1", r.Seed)
	if r.Oracles != 0 {
		cmd += " -oracles " + r.Oracles.String()
	}
	var repro strings.Builder
	fmt.Fprintf(&repro, "Differential divergence on seed %d.\n\n%s\n", r.Seed, r.Divergence())
	fmt.Fprintf(&repro, "Reproduce with:\n\n    %s\n\n", cmd)
	repro.WriteString("Per-configuration behaviour:\n\n")
	for i := range r.Execs {
		e := &r.Execs[i]
		fmt.Fprintf(&repro, "  %-22s %s\n", e.Config.Name, e.Behaviour())
		il, err := finalIL(fmt.Sprintf("seed%d.c", r.Seed), reduced, e.Config)
		if err != nil {
			il = "; IL unavailable: " + err.Error() + "\n"
		}
		files["il-"+e.Config.Name+".txt"] = il
	}
	files["repro.txt"] = repro.String()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(sub, name), []byte(content), 0o644); err != nil {
			return "", err
		}
	}
	return sub, nil
}

// finalIL compiles src under one configuration and prints the final
// IL (what the last pass, verify, checked).
func finalIL(filename, src string, nc driver.NamedConfig) (string, error) {
	c, err := driver.CompileSource(filename, src, nc.Config)
	if err != nil {
		return "", err
	}
	return ir.FormatModule(c.Module), nil
}
