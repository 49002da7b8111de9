// Command rpfuzz differentially fuzzes the compiler: it generates
// deterministic, UB-free random C programs (internal/testgen),
// compiles each under every pipeline configuration the evaluation
// compares — the no-opt reference, the baseline optimizer, promotion
// under MOD/REF and points-to analysis, and the §3.3/§3.4 variants —
// runs them in the instrumented interpreter, and flags any
// disagreement in printed output or exit code as a miscompilation.
// A set of oracles adds further checks to every seed. Failing seeds
// are shrunk with a delta-debugging reducer and archived as
// self-contained repro artifacts.
//
// Usage:
//
//	rpfuzz [flags]
//
//	-seeds N      number of consecutive seeds to test (default 100)
//	-start S      first seed (default 1)
//	-parallel M   concurrent seeds (default: one per CPU)
//	-short        trim the matrix to the reference plus the paper's
//	              three measured pipelines (CI smoke runs)
//	-oracles L    checks beside the cross-configuration diff, which
//	              always runs: a comma list of the names below, or
//	              "all" (default: none)
//	                switch       execute every compilation on the
//	                             switch reference engine too
//	                native       execute every compilation as native
//	                             machine code too (translation
//	                             validation of the codegen)
//	                sanitize     run every interpreted execution under
//	                             the analysis-soundness sanitizer
//	                certify      re-prove every promotion certificate
//	                             with the region-soundness verifier
//	                incremental  compile a one-unit-edited variant cold
//	                             into a fresh analysis cache, recompile
//	                             warm against it (both directions), and
//	                             demand the IL of an uncached compile
//	              An engine oracle must agree with the flat engine on
//	              output, exit, error text and dynamic counts. Every
//	              finding is a divergence, archived like any other
//	-native-backend B  how native artifacts execute: "auto" (probe
//	              plugin, fall back to subprocess), "plugin", or
//	              "subprocess"; the fuzzer defaults to subprocess
//	              because plugins can never be unloaded and a fuzz run
//	              builds one artifact per (seed, config)
//	-noreduce     archive failures without shrinking them first
//	-corpus DIR   failure artifact directory (default difftest/corpus)
//	-progress N   print a progress line every N completed seeds
//	              (default 100; 0 disables)
//	-v            log each divergent seed as it is found
//
// For example, the full smoke run:
//
//	go run ./cmd/rpfuzz -seeds 200 -short -oracles all
//
// Long runs are not silent: a progress line (seeds done, divergences,
// each oracle's checks and firings, elapsed, seeds/sec) goes to stderr
// every -progress seeds, and a matching summary line always ends the
// run.
//
// Exit status is 0 when every seed agrees under every configuration
// and no oracle fired, 1 when any divergence was found, 2 on usage or
// I/O errors. Each failure is written to <corpus>/seed<N>/ as prog.c
// (generator output), reduced.c (minimal reproducer), il-<config>.txt
// (final IL per configuration), and repro.txt (divergence summary
// plus the repro command, -oracles included); an incremental finding
// adds base.c, mutated.c, il-warm.txt and il-scratch.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"regpromo/internal/difftest"
	"regpromo/internal/native"
)

func main() {
	seeds := flag.Int64("seeds", 100, "number of consecutive seeds to test")
	start := flag.Int64("start", 1, "first seed")
	parallel := flag.Int("parallel", 0, "concurrent seeds (0 = one per CPU)")
	short := flag.Bool("short", false, "trim the configuration matrix for smoke runs")
	noreduce := flag.Bool("noreduce", false, "skip delta-debugging reduction of failures")
	corpus := flag.String("corpus", "difftest/corpus", "failure artifact directory")
	oracleList := flag.String("oracles", "", `oracles beside the cross-configuration diff: a comma list of switch, native, sanitize, certify, incremental, or "all"`)
	nativeBackend := flag.String("native-backend", "", `native artifact execution: "auto", "plugin", or "subprocess" (default subprocess)`)
	progressEvery := flag.Int64("progress", 100, "print a progress line every N completed seeds (0 = off)")
	verbose := flag.Bool("v", false, "log each divergence as it is found")
	flag.Parse()
	if *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "rpfuzz: -seeds must be positive")
		os.Exit(2)
	}
	oracles, err := difftest.ParseOracles(*oracleList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpfuzz:", err)
		os.Exit(2)
	}
	switch {
	case *nativeBackend != "":
		b, err := native.ParseBackend(*nativeBackend)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpfuzz:", err)
			os.Exit(2)
		}
		native.SetDefaultBackend(b)
	case oracles&difftest.Native != 0:
		// Unless overridden, fuzzing forces the subprocess backend:
		// every (seed, config) pair builds a distinct artifact and
		// plugins can never be unloaded from the process.
		native.SetDefaultBackend(native.BackendSubprocess)
	}

	began := time.Now()
	report, err := difftest.Fuzz(difftest.FuzzOptions{
		Start:     *start,
		Seeds:     *seeds,
		Parallel:  *parallel,
		Short:     *short,
		Oracles:   oracles,
		Reduce:    !*noreduce,
		CorpusDir: *corpus,
		Progress: func(seed int64, diverged bool, sofar difftest.Tally) {
			if diverged && *verbose {
				fmt.Fprintf(os.Stderr, "rpfuzz: seed %d diverges\n", seed)
			}
			if *progressEvery > 0 && sofar.Seeds%*progressEvery == 0 {
				fmt.Fprintf(os.Stderr, "rpfuzz: %s\n", statusLine(sofar, *seeds, time.Since(began)))
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpfuzz:", err)
		os.Exit(2)
	}
	fmt.Printf("rpfuzz: seeds [%d, %d) × %d configs: %s\n",
		*start, *start+*seeds, len(report.Matrix), statusLine(report.Tally, *seeds, time.Since(began)))
	if len(report.Failures) == 0 {
		return
	}
	for _, f := range report.Failures {
		fmt.Printf("\nseed %d (reduced to %d units) — artifacts in %s\n  %s\n",
			f.Seed, f.Units, f.Dir, strings.ReplaceAll(strings.TrimSuffix(f.Divergence, "\n"), "\n", "\n  "))
	}
	os.Exit(1)
}

// statusLine renders the shared progress/summary form: seeds done,
// the tally of divergences and oracle checks, elapsed wall time,
// seeds/sec.
func statusLine(t difftest.Tally, total int64, elapsed time.Duration) string {
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(t.Seeds) / secs
	}
	return fmt.Sprintf("%d/%d seeds, %s, %.1fs elapsed, %.1f seeds/sec",
		t.Seeds, total, t, elapsed.Seconds(), rate)
}
