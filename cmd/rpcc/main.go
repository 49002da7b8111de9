// Command rpcc compiles a C source file through the register-promotion
// pipeline and prints the resulting IL, per-pass telemetry, or both.
//
// Usage:
//
//	rpcc [flags] file.c
//
//	-analysis modref|pointer   interprocedural analysis (default modref)
//	-promote                   enable scalar register promotion
//	-pointerpromo              also enable §3.3 pointer-based promotion
//	-noopt                     disable the classical optimization passes
//	-noalloc                   skip register allocation
//	-k N                       physical register count (default 32)
//	-dump                      print the final IL
//	-stats                     print only the statistics footer, no IL
//	-trace                     print the per-pass trace table (wall time
//	                           and static IR deltas per pass)
//	-dump-ir pass|all          print the IL after the named pass (or
//	                           after every pass)
//	-json                      emit the whole compilation record — one
//	                           row per pass, promotion and allocation
//	                           statistics — as one JSON object
//	-trace-out FILE            write the compile's hierarchical span
//	                           tree (compile → whole-module passes, and
//	                           per-function middle-end work items with
//	                           their pass spans on the worker threads)
//	                           as Chrome trace_event JSON; open the
//	                           file in about:tracing or ui.perfetto.dev
//	-check SPEC                run the internal/check lint passes:
//	                           "module" runs the full registry once
//	                           after the pipeline, "pass" after the
//	                           front end and after every pass
//	                           (pinpoints the first pass that breaks
//	                           an invariant), and a comma list of pass
//	                           names (e.g. "uninit,promoted" or
//	                           "certify,pressure") runs exactly those
//	                           at the module boundary
//	-certify                   re-prove every promotion certificate
//	                           with the independent region-soundness
//	                           verifier right after promotion
//
// -trace, -dump-ir and -json print the per-pass rows that the
// compile's tracer folds from its pass spans.
//
// The promotion and allocation summaries always follow the IL as
// ";"-prefixed comment lines, so downstream IL consumers can skip them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
	"regpromo/internal/opt/promote"
	"regpromo/internal/regalloc"
)

func main() {
	analysis := flag.String("analysis", "modref", "interprocedural analysis: modref or pointer")
	promoteFlag := flag.Bool("promote", false, "enable scalar register promotion")
	pointerPromo := flag.Bool("pointerpromo", false, "enable pointer-based promotion (§3.3)")
	noopt := flag.Bool("noopt", false, "disable classical optimizations")
	noalloc := flag.Bool("noalloc", false, "skip register allocation")
	k := flag.Int("k", 0, "physical register count (0 = default 32)")
	throttle := flag.Int("throttle", 0, "promotion pressure limit (0 = unthrottled, §3.4 bin-packing)")
	dseFlag := flag.Bool("dse", false, "enable tag-based dead-store elimination (§3.4 extension)")
	dump := flag.Bool("dump", false, "print the final IL")
	dot := flag.String("dot", "", "emit the named function's CFG as Graphviz dot")
	stats := flag.Bool("stats", false, "print only the statistics footer, no IL")
	trace := flag.Bool("trace", false, "print the per-pass trace table")
	dumpIR := flag.String("dump-ir", "", "print the IL after the named pass (\"all\" = every pass)")
	jsonOut := flag.Bool("json", false, "emit the compilation record as JSON")
	traceOut := flag.String("trace-out", "", "write the compile's span tree as Chrome trace_event JSON to this file")
	checkFlag := flag.String("check", "off", `IL checker: "off", "module", "pass", or a comma list of lint-pass names`)
	certifyFlag := flag.Bool("certify", false, "re-prove promotion certificates with the region-soundness verifier")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rpcc [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcc:", err)
		os.Exit(1)
	}

	cfg := driver.Config{
		Promote:        *promoteFlag || *pointerPromo,
		PointerPromote: *pointerPromo,
		DisableOpt:     *noopt,
		NoAlloc:        *noalloc,
		K:              *k,
		Throttle:       *throttle,
		DSE:            *dseFlag,
	}
	switch *analysis {
	case "modref":
		cfg.Analysis = driver.ModRef
	case "pointer":
		cfg.Analysis = driver.PointsTo
	default:
		fmt.Fprintf(os.Stderr, "rpcc: unknown analysis %q (want modref or pointer)\n", *analysis)
		os.Exit(2)
	}
	level, checkPasses, err := driver.ParseCheck(*checkFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcc:", err)
		os.Exit(2)
	}
	cfg.Check = level
	cfg.CheckPasses = checkPasses
	cfg.Certify = *certifyFlag

	// Trace the pipeline whenever any telemetry output was asked for.
	var tr *obs.Tracer
	if *trace || *dumpIR != "" || *jsonOut || *traceOut != "" {
		tr = obs.NewTracer()
		tr.DumpPass = *dumpIR
	}
	c, err := driver.Compile(path, string(src), cfg, tr)
	if err != nil {
		var ce *driver.CheckError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "rpcc: %d check failure(s) after %s:\n", len(ce.Diags), ce.Pass)
			for _, d := range ce.Diags {
				fmt.Fprintln(os.Stderr, " ", d)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "rpcc:", err)
		os.Exit(1)
	}

	if *traceOut != "" {
		if err := tr.WriteChromeTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "rpcc:", err)
			os.Exit(1)
		}
	}
	rows := tr.Passes()
	if *jsonOut {
		if err := writeJSON(path, cfg, c, rows); err != nil {
			fmt.Fprintln(os.Stderr, "rpcc:", err)
			os.Exit(1)
		}
		return
	}
	if *dot != "" {
		fn, ok := c.Module.Funcs[*dot]
		if !ok {
			fmt.Fprintf(os.Stderr, "rpcc: no function %q\n", *dot)
			os.Exit(1)
		}
		printDot(fn, c.Module)
		return
	}
	if *trace {
		fmt.Print(obs.FormatTable(rows))
	}
	if *dumpIR != "" {
		dumped := 0
		var names []string
		for _, e := range rows {
			names = append(names, e.Name)
			if e.IRDump != "" {
				fmt.Printf(";; IL after pass %d (%s)\n%s\n", e.Index, e.Name, e.IRDump)
				dumped++
			}
		}
		if dumped == 0 {
			fmt.Fprintf(os.Stderr, "rpcc: -dump-ir: no pass named %q ran (passes: %s)\n",
				*dumpIR, strings.Join(names, " "))
			os.Exit(2)
		}
	}
	if *dump || (!*stats && !*trace && *dumpIR == "") {
		fmt.Print(ir.FormatModule(c.Module))
	}
	printFooter(c)
}

// printFooter summarizes the promotion and allocation statistics that
// the compilation recorded, as IL comment lines.
func printFooter(c *driver.Compilation) {
	fmt.Printf("; promotions: scalar=%d pointer=%d refs-rewritten=%d lifted-loads=%d lifted-stores=%d\n",
		c.Promote.ScalarPromotions, c.Promote.PointerPromotions,
		c.Promote.RefsRewritten, c.Promote.LoadsInserted, c.Promote.StoresInserted)
	fmt.Printf("; allocation: spilled=%d spill-loads=%d spill-stores=%d coalesced=%d rounds=%d max-live=%d\n",
		c.Alloc.Spilled, c.Alloc.SpillLoads, c.Alloc.SpillStores,
		c.Alloc.Coalesced, c.Alloc.Rounds, c.Alloc.MaxLive)
}

// record is the -json output shape: one compilation, fully described.
type record struct {
	File     string          `json:"file"`
	Analysis string          `json:"analysis"`
	Promote  bool            `json:"promote"`
	Passes   []obs.PassEvent `json:"passes"`
	Stats    struct {
		Promote promote.Stats  `json:"promote"`
		Alloc   regalloc.Stats `json:"alloc"`
	} `json:"stats"`
}

func writeJSON(path string, cfg driver.Config, c *driver.Compilation, rows []obs.PassEvent) error {
	rec := record{
		File:     path,
		Analysis: cfg.Analysis.String(),
		Promote:  cfg.Promote,
		Passes:   rows,
	}
	rec.Stats.Promote = c.Promote
	rec.Stats.Alloc = c.Alloc
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// printDot writes a Graphviz digraph of fn's CFG with instruction
// listings in the node labels.
func printDot(fn *ir.Func, m *ir.Module) {
	fmt.Printf("digraph %q {\n", fn.Name)
	fmt.Println("\tnode [shape=box, fontname=\"monospace\"];")
	for _, b := range fn.Blocks {
		var label strings.Builder
		fmt.Fprintf(&label, "%s\\l", b.Label)
		for i := range b.Instrs {
			text := ir.FormatInstr(&b.Instrs[i], &m.Tags, b)
			text = strings.ReplaceAll(text, "\"", "'")
			fmt.Fprintf(&label, "  %s\\l", text)
		}
		fmt.Printf("\t%q [label=\"%s\"];\n", b.Label, label.String())
		for _, s := range b.Succs {
			fmt.Printf("\t%q -> %q;\n", b.Label, s.Label)
		}
	}
	fmt.Println("}")
}
