// Command perfbench is the repository's benchmark. It compiles and runs
// the paper's suite and a generated scale module through the public
// entry points of the compiler, checks every program's output against
// references produced by the host C compiler, and prints its metrics as
// one JSON object on the last line of standard output.
//
// Usage, from the repository root (perfbench/run.sh builds the binary
// and sets the environment up):
//
//	bash perfbench/run.sh --workload suite-flat --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the same
// work calling every layer directly and reports the per-layer metrics.
// README.md describes the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
)

// workers bounds the compiler's parallel middle end and the Go
// scheduler: the benchmark machine has two CPUs, and one process with
// at most two threads keeps runs comparable.
var workers = min(2, runtime.NumCPU())

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so a one-off cost (the first plugin-mode std build in a fresh
// build cache) shows once and does not move the figure.
const setupReps = 5

// Sizes of the generated scale modules. scaleFuncs is the
// scale-recompile workload (~18.7k lines); sideFuncs is the module the
// suite workloads recompile as side work (~1.9k lines), generated from
// the fixed sideSeed so its figures do not move with the seed.
const (
	scaleFuncs = 200
	sideFuncs  = 20
	sideSeed   = 1
)

// sideProgram is the program suite-flat and scale-recompile run
// natively as side work. It is fixed, not drawn, so its figures do not
// move with the seed.
const sideProgram = "mlink"

// minRounds is the least number of warm rounds suite-native makes after
// its cold pass, so its side work and warm cells have enough samples
// however long the cold pass took.
const minRounds = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(nativeChild(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "suite-flat, scale-recompile or suite-native")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 10, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want suite-flat, scale-recompile or suite-native)\n", *workload)
		return 2
	}
	runtime.GOMAXPROCS(workers)

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)
	root, err = filepath.Abs(root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	b := &benchRun{seed: *seed, root: root, log: stderr, samples: map[string][]float64{}, reps: map[string]int{}}
	if *trace == 1 {
		b.tr = newTracer()
	}
	setupS, err := b.setup(w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	b.deadline = time.Now().Add(time.Duration(*seconds) * time.Second)
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	var ms metrics
	if b.tr == nil {
		ms = b.endToEnd(setupS)
	} else {
		ms = b.tr.perLayer(b.cycles)
	}
	if err := ms.complete(*trace == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ms.print(stdout, b.samples, b.reps)
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// workload is one benchmark input set. run performs the measured phase
// until the benchmark's deadline.
type workload struct {
	scale bool // generates the seeded scale module in set-up
	run   func(b *benchRun) error
}

var workloads = map[string]workload{
	"suite-flat":      {run: runSuiteFlat},
	"scale-recompile": {scale: true, run: runScaleRecompile},
	"suite-native":    {run: runSuiteNative},
}

// benchRun is one benchmark process's state.
type benchRun struct {
	seed     int64
	root     string // scratch directory of this run, removed at exit
	log      io.Writer
	tr       *tracer // nil in untraced runs
	deadline time.Time

	suite   []bench.Program
	sources map[string]string // program name → C source
	lines   map[string]int
	refs    map[string]reference
	// The generated scale modules: the seeded workload module and the
	// fixed one of the side work.
	scale, sideScale *scaleInput

	// cycles counts repetitions of the workload's main unit of work.
	cycles int
	// attempted and failed count cells (one compile, run or recompile
	// checked against its reference).
	attempted, failed int
	// samples holds the end-to-end metrics' raw samples by name; reps,
	// for a metric sampled as a rate, its repetitions per cell.
	samples map[string][]float64
	reps    map[string]int
}

// setup prepares the run's inputs setupReps times and returns the
// median set-up time in seconds.
func (b *benchRun) setup(w workload) (float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		b.suite = bench.Suite()
		b.sources = map[string]string{}
		b.lines = map[string]int{}
		for _, p := range b.suite {
			src := bench.Source(p)
			if _, err := driver.ParseSource(p.Name+".c", src); err != nil {
				return 0, fmt.Errorf("parse %s: %w", p.Name, err)
			}
			b.sources[p.Name] = src
			b.lines[p.Name] = countLines(src)
		}
		refs, err := loadReferences(b.suite)
		if err != nil {
			return 0, err
		}
		b.refs = refs
		if w.scale {
			b.scale = newScaleInput(b.seed, scaleFuncs)
		} else {
			b.sideScale = newScaleInput(sideSeed, sideFuncs)
		}
		if err := warmToolchain(b.root); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// fail records a failed cell.
func (b *benchRun) fail(cell string, err error) {
	b.failed++
	fmt.Fprintf(b.log, "perfbench: FAIL %s: %v\n", cell, err)
}

func (b *benchRun) sample(name string, v float64) {
	b.samples[name] = append(b.samples[name], v)
}

// sampleRate records a rate in work per second divided by scale.
func (b *benchRun) sampleRate(name string, r *rate, scale float64) {
	if v, n := r.value(); n > 0 {
		b.sample(name, v/scale)
		b.reps[name] = n
	}
}

// rate is a throughput over a set of cells: Σ work / Σ time, where a
// cell's time is the median of its repetitions, so a repetition that
// the machine happened to interrupt does not move it.
type rate struct {
	work  map[string]float64
	times map[string][]float64
}

func newRate() *rate { return &rate{work: map[string]float64{}, times: map[string][]float64{}} }

// add records one repetition of a cell; work is the same every time.
func (r *rate) add(cell string, work float64, d time.Duration) {
	r.work[cell] = work
	r.times[cell] = append(r.times[cell], d.Seconds())
}

// value returns the rate and the fewest repetitions of any cell, or
// 0, 0 when nothing was timed.
func (r *rate) value() (float64, int) {
	var work, secs float64
	n := 0
	for cell, ts := range r.times {
		work += r.work[cell]
		secs += median(ts)
		if n == 0 || len(ts) < n {
			n = len(ts)
		}
	}
	if secs <= 0 {
		return 0, 0
	}
	return work / secs, n
}

func (b *benchRun) expired() bool { return time.Now().After(b.deadline) }

// endToEnd assembles the end-to-end metrics from the run's samples.
func (b *benchRun) endToEnd(setupS float64) metrics {
	ms := metrics{}
	ms.set("setup_s", setupS, "s")
	for _, m := range []struct{ name, unit string }{
		{"compile_klines_per_s", "kLOC/s"},
		{"exec_mops_per_s", "Mops/s"},
		{"recompile_ms", "ms"},
		{"native_cold_s", "s"},
		{"native_warm_ms", "ms"},
		{"native_exec_mops_per_s", "Mops/s"},
		{"peak_rss_mb", "MB"},
		{"fig5_ops_ratio", "ratio"},
		{"fig6_stores_ratio", "ratio"},
		{"fig7_loads_ratio", "ratio"},
	} {
		if s := b.samples[m.name]; len(s) > 0 {
			ms.set(m.name, median(s), m.unit)
		}
	}
	if b.attempted > 0 {
		ms.set("pass_frac", float64(b.attempted-b.failed)/float64(b.attempted), "ratio")
	}
	return ms
}

// Metric names, in the order BENCHMARK.json lists them.
var (
	endToEndNames = []string{
		"setup_s", "compile_klines_per_s", "exec_mops_per_s", "recompile_ms",
		"native_cold_s", "native_warm_ms", "native_exec_mops_per_s",
		"peak_rss_mb", "pass_frac",
		"fig5_ops_ratio", "fig6_stores_ratio", "fig7_loads_ratio",
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (ms metrics) set(name string, v float64, unit string) { ms[name] = metric{v, unit} }

// complete checks that the run measured every metric of its mode.
func (ms metrics) complete(traced bool) error {
	names := endToEndNames
	if traced {
		names = perLayerNames()
	}
	var missing []string
	for _, n := range names {
		if _, ok := ms[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

// print writes a human-readable table ahead of the JSON line, with the
// number of samples behind each median, or of repetitions behind each
// rate.
func (ms metrics) print(w io.Writer, samples map[string][]float64, reps map[string]int) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line := fmt.Sprintf("%-28s %14.6g %-7s", k, ms[k].Value, ms[k].Unit)
		if c := reps[k]; c > 0 {
			line += fmt.Sprintf(" median of %d reps per cell", c)
		} else if c := len(samples[k]); c > 0 {
			line += fmt.Sprintf(" median of %d", c)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func countLines(s string) int { return strings.Count(s, "\n") }

// settle collects garbage before a timed step, so every sample starts
// from the same heap state instead of paying for earlier steps' garbage
// at a point that depends on the allocator's pacing.
func settle() { runtime.GC() }

// samplePeakRSS records the process's peak resident set size since
// the last call (or resetPeakRSS) as a peak_rss_mb sample, and starts a
// new peak. One peak per cycle of the same work, and their median, is
// steadier than the whole run's peak, which depends on where garbage
// collections happened to fall against the largest allocation.
func (b *benchRun) samplePeakRSS() error {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	_, rest, _ := strings.Cut(string(status), "\nVmHWM:")
	fields := strings.Fields(rest) // "<n> kB"
	if len(fields) == 0 {
		return fmt.Errorf("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return fmt.Errorf("VmHWM: %w", err)
	}
	b.sample("peak_rss_mb", kb/1024)
	return resetPeakRSS()
}

// resetPeakRSS starts a new peak resident set size: Linux resets a
// process's VmHWM to its current RSS when 5 is written to clear_refs.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// checkOutput compares one execution with the program's reference.
// The reference exit status is what the host saw, so main's return
// value is compared modulo 256.
func (b *benchRun) checkOutput(prog string, res *interp.Result) error {
	ref := b.refs[prog]
	if res.Output != ref.stdout {
		return errors.New("output differs from the reference")
	}
	if int64(uint8(res.Exit)) != ref.exit {
		return fmt.Errorf("exit status %d, reference %d", uint8(res.Exit), ref.exit)
	}
	return nil
}
