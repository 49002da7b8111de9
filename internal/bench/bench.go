// Package bench packages the 14-program workload suite standing in
// for the paper's benchmarks (Figure 4) and the measurement harness
// that regenerates the evaluation tables: total operations executed
// (Figure 5), stores executed (Figure 6), and loads executed
// (Figure 7), each measured without and with register promotion under
// MOD/REF analysis and under points-to analysis.
package bench

import (
	"embed"
	"fmt"
	"strings"

	"regpromo/internal/analysis/certify"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
)

//go:embed programs/*.c
var sources embed.FS

// Program describes one suite member.
type Program struct {
	// Name is the paper's program name.
	Name string
	// File is the embedded source path.
	File string
	// Desc matches the Figure 4 description column.
	Desc string
}

// Suite lists the benchmark programs in the paper's Figure 4 order
// (gzip appears once per direction, as in the result tables).
func Suite() []Program {
	return []Program{
		{"tsp", "programs/tsp.c", "a traveling salesman problem"},
		{"mlink", "programs/mlink.c", "genetic linkage analysis (FASTLINK)"},
		{"fft", "programs/fft.c", "fast Fourier transform"},
		{"clean", "programs/clean.c", "dead-code elimination pass"},
		{"caches", "programs/caches.c", "cache simulator"},
		{"li", "programs/li.c", "lisp interpreter from SPEC"},
		{"dhrystone", "programs/dhrystone.c", "synthetic integer benchmark"},
		{"water", "programs/water.c", "molecular dynamics simulation"},
		{"indent", "programs/indent.c", "prettyprinter for C programs"},
		{"allroots", "programs/allroots.c", "polynomial root-finder"},
		{"bc", "programs/bc.c", "calculator language from GNU"},
		{"bison", "programs/bison.c", "LR(1) parser generator"},
		{"geb", "programs/geb.c", "graphics compression code from SPEC"},
		{"gzip(enc)", "programs/gzip_enc.c", "file compression (compressing)"},
		{"gzip(dec)", "programs/gzip_dec.c", "file compression (decompressing)"},
	}
}

// Source returns a program's C text.
func Source(p Program) string {
	data, err := sources.ReadFile(p.File)
	if err != nil {
		panic("bench: missing embedded source " + p.File)
	}
	return string(data)
}

// Lines counts source lines, for the Figure 4 listing.
func Lines(p Program) int {
	return strings.Count(Source(p), "\n")
}

// Measurement is one compile-and-run data point.
type Measurement struct {
	Counts  interp.Counts
	Output  string
	Promote int // scalar + pointer promotions performed
	Spilled int

	// Pressure is the static register-pressure report per promotion
	// site (empty when nothing was promoted); see certify.Pressure.
	Pressure []certify.Pressure
}

// Measure compiles p under cfg from source and executes it on the
// default (flat) engine. The measurement matrix (CollectReport) does
// not go through here: it parses each program once and forks the
// per-configuration pipelines from the shared artifact.
func Measure(p Program, cfg driver.Config) (*Measurement, error) {
	c, err := driver.CompileSource(p.Name+".c", Source(p), cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return execute(p, c, []interp.Engine{interp.EngineFlat})
}

// execute runs a compiled program once on each requested engine and
// packages the measurement. The first engine's counts and output
// define the measurement; every further engine must reproduce them
// exactly (a disagreement fails the measurement — it would mean the
// parity contract the differential tests enforce has been broken on a
// real workload).
func execute(p Program, c *driver.Compilation, engines []interp.Engine) (*Measurement, error) {
	m := &Measurement{
		Promote:  c.Promote.ScalarPromotions + c.Promote.PointerPromotions,
		Spilled:  c.Alloc.Spilled,
		Pressure: c.Pressure(),
	}
	for i, engine := range engines {
		res, err := c.Execute(interp.Options{MaxSteps: 1 << 33, Engine: engine})
		if err != nil {
			return nil, fmt.Errorf("%s: %s engine: %w", p.Name, engine, err)
		}
		if i == 0 {
			m.Counts = res.Counts
			m.Output = res.Output
		} else if res.Counts != m.Counts || res.Output != m.Output {
			return nil, fmt.Errorf("%s: engine parity broken: %s counts=%+v output %d bytes, %s counts=%+v output %d bytes",
				p.Name, engines[0], m.Counts, len(m.Output), engine, res.Counts, len(res.Output))
		}
	}
	return m, nil
}

// Metric selects which dynamic count a figure reports.
type Metric int

const (
	// TotalOps is Figure 5.
	TotalOps Metric = iota
	// Stores is Figure 6.
	Stores
	// Loads is Figure 7.
	Loads
	// WeightedCycles prices each memory operation at MemLatency
	// cycles and everything else at one, quantifying the paper's
	// remark that "if memory operations take more cycles than other
	// operations, as in many modern machines, the positive impact
	// of promotion will be greater" (§5).
	WeightedCycles
)

// MemLatency is the cycle weight of a load or store in the
// WeightedCycles metric.
const MemLatency = 3

func (m Metric) String() string {
	switch m {
	case TotalOps:
		return "Total Operations"
	case Stores:
		return "Stores"
	case Loads:
		return "Loads"
	case WeightedCycles:
		return fmt.Sprintf("Weighted Cycles (memory op = %d)", MemLatency)
	}
	return "?"
}

func (m Metric) pick(c interp.Counts) int64 {
	switch m {
	case TotalOps:
		return c.Ops
	case Stores:
		return c.Stores
	case Loads:
		return c.Loads
	default:
		return c.Ops + (MemLatency-1)*(c.Loads+c.Stores)
	}
}

// Options tweak the measurement matrix.
type Options struct {
	// PointerPromotion enables §3.3 promotion in the "with" columns
	// (off for the paper's main tables; on for the §3.3 study).
	PointerPromotion bool
	// Programs restricts the suite (nil = all).
	Programs []string
	// K overrides the register supply (0 = default).
	K int
	// Certify re-proves every promotion certificate with the
	// independent region-soundness verifier during each measurement's
	// compile; a refuted certificate fails the measurement.
	Certify bool
	// Engines lists the execution engines every measurement runs on
	// (empty = the flat engine alone). Each engine runs once and all
	// are held to identical counts and output, so the list only adds
	// an engine-parity check: the report is the same for any list.
	Engines []interp.Engine
	// Parallel bounds how many programs are measured concurrently:
	// 1 (or less) measures serially, 0 is treated as 1, and larger
	// values fan the suite out over a worker pool. Results are
	// assembled in suite order either way, so the tables and reports
	// a parallel run produces are identical to a serial run's.
	Parallel int
}

// engineList resolves the effective engine list.
func (o Options) engineList() []interp.Engine {
	if len(o.Engines) > 0 {
		return o.Engines
	}
	return []interp.Engine{interp.EngineFlat}
}

// workers normalizes Options.Parallel for ParallelMap: the harness
// keeps "unset" meaning serial so existing callers measure exactly as
// before.
func (o Options) workers() int {
	if o.Parallel <= 1 {
		return 1
	}
	return o.Parallel
}

// selected returns the suite members the options ask for, in suite
// order.
func (o Options) selected() []Program {
	want := map[string]bool{}
	for _, n := range o.Programs {
		want[n] = true
	}
	var ps []Program
	for _, p := range Suite() {
		if len(want) > 0 && !want[p.Name] {
			continue
		}
		ps = append(ps, p)
	}
	return ps
}

// FormatTable renders one figure in the paper's layout.
func FormatTable(f *FigureReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", f.Metric)
	fmt.Fprintf(&sb, "%-11s %-8s %12s %12s %12s %10s\n",
		"Program", "analysis", "without", "with", "difference", "% removed")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-11s %-8s %12d %12d %12d %10.2f\n",
			r.Program, r.Analysis, r.Without, r.With, r.Difference, r.PercentRemoved)
	}
	return sb.String()
}

// FormatFigure4 renders the program-description table.
func FormatFigure4() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-11s %6s  %s\n", "Program", "Lines", "Description")
	for _, p := range Suite() {
		fmt.Fprintf(&sb, "%-11s %6d  %s\n", p.Name, Lines(p), p.Desc)
	}
	return sb.String()
}
