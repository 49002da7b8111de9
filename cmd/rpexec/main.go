// Command rpexec compiles a C source file and runs it in the
// instrumented interpreter, reporting the program's output, exit code,
// and dynamic operation counts — the measurement the paper's Figures
// 5–7 are built from.
//
// Usage:
//
//	rpexec [flags] file.c
//
// It accepts the same configuration flags as rpcc, plus -profile,
// which prints an execution profile: the hottest basic blocks by
// execution count and the per-tag dynamic memory traffic (-top bounds
// both lists). -sanitize runs the program under the analysis-soundness
// sanitizer: every memory access is diffed against the static MOD/REF
// and points-to sets, and any access outside them is reported with
// function/block/instruction provenance (exit status 1). -certify
// re-proves every promotion certificate with the independent
// region-soundness verifier right after promotion; a refuted
// certificate fails the compile. -engine
// selects the execution engine: flat (the pre-lowered default),
// switch (the block-walking reference), or native (the program
// compiled to machine code via generated Go); all three produce
// identical counts, output, and error text, so the choice only
// changes wall time. -native-backend picks how native artifacts
// execute (auto probes in-process plugin loading and falls back to a
// subprocess exec); -nocounts runs the native engine without
// instrumentation, reporting zero counts in exchange for the fastest
// possible run.
// -cpuprofile writes a Go pprof profile of the whole compile+run, for
// profiling the measurement loop itself. -trace-out writes the
// compile and execute spans as Chrome trace_event JSON, and -metrics
// enables the process-wide metrics registry and prints its snapshot
// after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/native"
	"regpromo/internal/obs"
)

func main() {
	analysis := flag.String("analysis", "modref", "interprocedural analysis: modref or pointer")
	promote := flag.Bool("promote", false, "enable scalar register promotion")
	pointerPromo := flag.Bool("pointerpromo", false, "enable pointer-based promotion (§3.3)")
	noopt := flag.Bool("noopt", false, "disable classical optimizations")
	noalloc := flag.Bool("noalloc", false, "skip register allocation")
	k := flag.Int("k", 0, "physical register count (0 = default 32)")
	throttle := flag.Int("throttle", 0, "promotion pressure limit (0 = unthrottled, §3.4 bin-packing)")
	dseFlag := flag.Bool("dse", false, "enable tag-based dead-store elimination (§3.4 extension)")
	maxSteps := flag.Int64("maxsteps", 1<<33, "interpreter step limit")
	quiet := flag.Bool("q", false, "suppress program output, print only counts")
	profile := flag.Bool("profile", false, "collect and print a hot-spot profile")
	top := flag.Int("top", 10, "profile list length (with -profile)")
	engineName := flag.String("engine", "flat", "execution engine: flat, switch, or native")
	nativeBackend := flag.String("native-backend", "", `native artifact execution: "auto", "plugin", or "subprocess"`)
	noCounts := flag.Bool("nocounts", false, "native engine only: skip instrumentation (counts report zero)")
	sanitize := flag.Bool("sanitize", false, "diff observed memory behaviour against the static analyses")
	certify := flag.Bool("certify", false, "re-prove promotion certificates with the region-soundness verifier")
	cpuprofile := flag.String("cpuprofile", "", "write a Go CPU profile of the compile+run to this file")
	traceOut := flag.String("trace-out", "", "write compile+execute spans as Chrome trace_event JSON to this file")
	metrics := flag.Bool("metrics", false, "enable the metrics registry and print its snapshot after the run")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rpexec [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(1)
	}

	cfg := driver.Config{
		Promote:        *promote || *pointerPromo,
		PointerPromote: *pointerPromo,
		DisableOpt:     *noopt,
		NoAlloc:        *noalloc,
		K:              *k,
		Throttle:       *throttle,
		DSE:            *dseFlag,
		Certify:        *certify,
	}
	switch *analysis {
	case "modref":
		cfg.Analysis = driver.ModRef
	case "pointer":
		cfg.Analysis = driver.PointsTo
	default:
		fmt.Fprintf(os.Stderr, "rpexec: unknown analysis %q\n", *analysis)
		os.Exit(2)
	}

	engine, err := driver.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(2)
	}
	if *nativeBackend != "" {
		b, err := native.ParseBackend(*nativeBackend)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpexec:", err)
			os.Exit(2)
		}
		native.SetDefaultBackend(b)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpexec:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rpexec:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *metrics {
		obs.EnableMetrics()
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer()
	}
	c, err := driver.Compile(path, string(src), cfg, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(1)
	}
	esp := tr.Start("execute", "interp", 0).Label("engine", engine.String())
	res, err := c.Execute(interp.Options{MaxSteps: *maxSteps, Profile: *profile, Engine: engine, Sanitize: *sanitize, NoCounts: *noCounts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpexec:", err)
		os.Exit(1)
	}
	esp.Arg("ops", res.Counts.Ops).Arg("loads", res.Counts.Loads).Arg("stores", res.Counts.Stores).End()
	if *traceOut != "" {
		if err := tr.WriteChromeTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "rpexec:", err)
			os.Exit(1)
		}
	}
	if !*quiet {
		fmt.Print(res.Output)
	}
	fmt.Printf("exit=%d ops=%d loads=%d stores=%d copies=%d calls=%d\n",
		res.Exit, res.Counts.Ops, res.Counts.Loads, res.Counts.Stores,
		res.Counts.Copies, res.Counts.Calls)
	if res.Profile != nil {
		fmt.Print(res.Profile.Format(*top))
	}
	if *metrics {
		fmt.Print(obs.Metrics().Snapshot().Format())
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "rpexec: sanitizer: %d violation(s):\n", len(res.Violations))
		for _, d := range res.Violations {
			fmt.Fprintln(os.Stderr, " ", d)
		}
		os.Exit(1)
	}
}
