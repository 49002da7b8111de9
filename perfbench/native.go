package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/native"
)

// Native cells run baseline (configuration 0) and promote-modref
// (configuration 1), the two native configurations.
var nativeConfigs = []int{0, 1}

// nativeReruns is the least number of times an untraced warm cell runs
// its compilation on the flat engine, and reruns its loaded artifact,
// in one timed batch each; the batches time exec_mops_per_s and
// native_exec_mops_per_s. The artifact's first run in a process pays
// for faulting its code and stack in, and belongs to the cell's
// source → exit time.
const nativeReruns = 3

// nativeSet is a set of native cells, built cold in this process into
// an empty artifact cache and then run in rounds.
type nativeSet struct {
	keys     []cellKey
	dir      string                    // the artifact cache the cold pass fills
	counts   map[cellKey]interp.Counts // of the cold pass
	nextCold int                       // the cell the next cold child builds

	// Source → exit times by cell: of the cold cells in s, of the warm
	// cells in ms.
	cold, warm map[string][]float64
	// compile times the in-process compiles; flat and native time the
	// flat-engine runs and the artifact reruns. The warm cells' runs
	// happen in fresh processes, so a cell's median spans several
	// memory layouts rather than the one this process happened to get.
	compile, flat, native *rate
}

// coldPass builds and runs every cell cold in this process, checking
// each against its reference and against a flat-engine run of the same
// compilation. between, if not nil, runs after every spreadEvery cells
// with the set and the number of cells built so far, to spread other
// work over the pass.
func (b *benchRun) coldPass(keys []cellKey, between func(s *nativeSet, built int) error) (*nativeSet, error) {
	dir, err := os.MkdirTemp(b.root, "native-")
	if err != nil {
		return nil, err
	}
	s := &nativeSet{
		keys: keys, dir: dir, counts: map[cellKey]interp.Counts{},
		cold: map[string][]float64{}, warm: map[string][]float64{},
		compile: newRate(), flat: newRate(), native: newRate(),
	}
	seen := map[[32]byte]bool{}
	for i, k := range keys {
		b.attempted++
		if err := b.coldCell(k, s, seen); err != nil {
			b.fail(k.String()+"/native-cold", err)
		}
		if between != nil && (i+1)%spreadEvery == 0 {
			if err := between(s, i+1); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// spreadEvery is how many cold cells pass between two runs of the
// work a cold pass spreads over itself.
const spreadEvery = 5

// coldCell runs one cell from source to exit with an empty artifact
// cache. A cell whose native source an earlier cell of the pass
// already built is not cold; it is checked but not timed.
func (b *benchRun) coldCell(k cellKey, s *nativeSet, seen map[[32]byte]bool) error {
	root := b.cellSpan(k.String() + "/native-cold")
	defer b.endSpan(root)

	before, err := countArtifacts(s.dir)
	if err != nil {
		return err
	}
	settle()
	t0 := time.Now()
	c, cd, err := b.compile(k.prog+".c", b.sources[k.prog], driver.Configurations()[k.cfg], nil, root)
	if err != nil {
		return err
	}
	prog := b.flatten(c, root)
	if b.tr != nil {
		sp := b.tr.begin("native.codegen", root)
		src := prog.NativeSource(true)
		b.tr.end(sp)
		b.tr.add("native.source_kb", float64(len(src))/1024)
	}
	sp := b.spanOrNone("native.build", root)
	a, err := native.Build(prog, true, native.Options{Backend: native.BackendPlugin, CacheDir: s.dir})
	b.endSpan(sp)
	if err != nil {
		return err
	}
	sp = b.spanOrNone("native.run", root)
	res, err := a.Run(interp.Options{})
	b.endSpan(sp)
	total := time.Since(t0)
	if err != nil {
		return err
	}
	after, err := countArtifacts(s.dir)
	if err != nil {
		return err
	}

	sum := sha256.Sum256([]byte(prog.NativeSource(true)))
	switch {
	case after == before+1 && !seen[sum]:
		s.cold[k.String()] = append(s.cold[k.String()], total.Seconds())
		if b.tr != nil {
			b.tr.add("native.builds", 1)
		}
	case after == before && seen[sum]:
		// Same source as an earlier cell: the artifact is already
		// loaded, so this cell is warm, not cold.
	default:
		return fmt.Errorf("cold cell: %d artifacts before the build, %d after", before, after)
	}
	seen[sum] = true
	if err := b.checkOutput(k.prog, res); err != nil {
		return err
	}
	fres, fd, err := b.runFlat(c, root)
	if err != nil {
		return fmt.Errorf("flat parity run: %w", err)
	}
	if fres.Counts != res.Counts || fres.Output != res.Output || fres.Exit != res.Exit {
		return fmt.Errorf("flat and native disagree: flat %+v, native %+v", fres.Counts, res.Counts)
	}
	s.flat.add(k.String(), float64(fres.Counts.Ops), fd)
	s.compile.add(k.String(), float64(b.lines[k.prog]), cd)
	s.counts[k] = res.Counts
	return nil
}

// round runs the set once more: a warm pass over every cell in a fresh
// process, then, untraced, either (own set) an in-process compile of
// every cell, or (side work) a cold build of one cell, in turn, in a
// fresh process and an empty cache, so cold samples spread over the
// run too.
func (s *nativeSet) round(b *benchRun, own bool) error {
	if err := b.childPass(s.keys, s.dir, false, s); err != nil {
		return err
	}
	if b.tr != nil {
		return nil
	}
	if own {
		for _, k := range s.keys {
			b.attempted++
			_, d, err := b.compile(k.prog+".c", b.sources[k.prog], driver.Configurations()[k.cfg], nil, -1)
			if err != nil {
				b.fail(k.String()+"/compile", err)
				continue
			}
			s.compile.add(k.String(), float64(b.lines[k.prog]), d)
		}
		return nil
	}
	dir, err := os.MkdirTemp(b.root, "native-cold-")
	if err != nil {
		return err
	}
	k := s.keys[s.nextCold%len(s.keys)]
	s.nextCold++
	return b.childPass([]cellKey{k}, dir, true, s)
}

// sampleNative records the native metrics. A cell's source → exit
// time is the median of its samples, so cells count once each however
// many rounds reached them.
func (s *nativeSet) sampleNative(b *benchRun) {
	for _, ts := range s.cold {
		b.sample("native_cold_s", median(ts))
	}
	for _, ts := range s.warm {
		b.sample("native_warm_ms", median(ts))
	}
	b.sampleRate("native_exec_mops_per_s", s.native, 1e6)
}

// sampleFlat records exec_mops_per_s and the figure ratios from the
// flat-engine runs, on workloads whose own cells do not run the flat
// matrix.
func (s *nativeSet) sampleFlat(b *benchRun) {
	b.sampleRate("exec_mops_per_s", s.flat, 1e6)
	figs := figures{}
	for k, c := range s.counts {
		figs[k] = c
	}
	figs.sample(b)
}

// flatten lowers a compilation for the native code generator.
func (b *benchRun) flatten(c *driver.Compilation, parent int) *interp.Program {
	sp := b.spanOrNone("interp.flatten", parent)
	prog := interp.Flatten(c.Module, false)
	b.endSpan(sp)
	return prog
}

func (b *benchRun) spanOrNone(name string, parent int) int {
	if b.tr == nil {
		return -1
	}
	return b.tr.begin(name, parent)
}

// countArtifacts counts the built native artifacts in dir.
func countArtifacts(dir string) (int, error) {
	m, err := filepath.Glob(filepath.Join(dir, "*.so"))
	return len(m), err
}

// childCell is one cell's outcome, as a child process reports it.
type childCell struct {
	Cell     string `json:"cell"`
	TotalNS  int64  `json:"total_ns"`
	BuildNS  int64  `json:"build_ns"` // native.Build: the load on a disk hit
	Built    bool   `json:"built"`    // the cell's artifact was absent and is now present
	Ops      int64  `json:"ops"`
	FlatNS   int64  `json:"flat_ns"`   // mean flat-engine run, lowering done beforehand
	NativeNS int64  `json:"native_ns"` // mean rerun of the artifact
	Err      string `json:"err,omitempty"`
}

const childArg = "native-child"

// childPass runs cells from source to exit in a fresh process against
// the artifact cache dir. A cold pass expects every cell to build its
// artifact; a warm pass expects every artifact on disk already.
func (b *benchRun) childPass(keys []cellKey, dir string, cold bool, s *nativeSet) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var spec []string
	for _, k := range keys {
		spec = append(spec, k.prog+":"+strconv.Itoa(k.cfg))
	}
	reruns := 0
	if !cold && b.tr == nil {
		reruns = nativeReruns
	}
	cmd := exec.Command(exe, childArg, "-cache", dir, "-cells", strings.Join(spec, ","), "-reruns", strconv.Itoa(reruns))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, b.log
	// Hand freed memory back now, so this process's background
	// scavenger does not compete with the child's timed runs.
	debug.FreeOSMemory()
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("native child: %w", err)
	}
	var cells []childCell
	if err := json.Unmarshal(stdout.Bytes(), &cells); err != nil {
		return fmt.Errorf("native child: bad report: %w", err)
	}
	if len(cells) != len(keys) {
		return fmt.Errorf("native child: %d cells reported, %d run", len(cells), len(keys))
	}
	mode := "/native-warm"
	if cold {
		mode = "/native-cold-child"
	}
	for i, c := range cells {
		b.attempted++
		switch {
		case c.Err != "":
		case c.Built != cold:
			c.Err = fmt.Sprintf("artifact built: %v, want %v", c.Built, cold)
		case c.Ops != s.counts[keys[i]].Ops:
			c.Err = fmt.Sprintf("%d ops, the cold pass ran %d", c.Ops, s.counts[keys[i]].Ops)
		}
		if c.Err != "" {
			b.fail(c.Cell+mode, fmt.Errorf("%s", c.Err))
			continue
		}
		if cold {
			s.cold[c.Cell] = append(s.cold[c.Cell], float64(c.TotalNS)/1e9)
			continue
		}
		s.warm[c.Cell] = append(s.warm[c.Cell], float64(c.TotalNS)/1e6)
		if c.FlatNS > 0 && c.NativeNS > 0 {
			s.flat.add(c.Cell, float64(c.Ops), time.Duration(c.FlatNS))
			s.native.add(c.Cell, float64(c.Ops), time.Duration(c.NativeNS))
		}
		if b.tr != nil {
			b.tr.add("native.load.ms", float64(c.BuildNS)/1e6)
		}
	}
	return nil
}

// nativeChild is a child pass's process: for each cell it goes from
// source to exit through the public entry points, as one
// `rpexec -engine native` run would. Against a cache holding the
// artifact it finds it on disk and loads it; against an empty one it
// builds it. With reruns > 0 it then times a batch of flat-engine runs
// and a batch of artifact reruns, checking their counts.
func nativeChild(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet(childArg, flag.ContinueOnError)
	dir := fs.String("cache", "", "artifact cache directory")
	spec := fs.String("cells", "", "comma list of program:config")
	reruns := fs.Int("reruns", 0, "artifact reruns per cell")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(workers)
	suite := bench.Suite()
	refs, err := loadReferences(suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b := &benchRun{suite: suite, refs: refs}
	var out []childCell
	for _, cs := range strings.Split(*spec, ",") {
		name, ci, ok := strings.Cut(cs, ":")
		cfg, err := strconv.Atoi(ci)
		if !ok || err != nil || cfg < 0 || cfg >= len(cfgName) {
			fmt.Fprintf(os.Stderr, "bad cell %q\n", cs)
			return 2
		}
		k := cellKey{name, cfg}
		cc := childCell{Cell: k.String()}
		if err := b.childCell(k, *dir, *reruns, &cc); err != nil {
			cc.Err = err.Error()
		}
		out = append(out, cc)
	}
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		return 1
	}
	return 0
}

func (b *benchRun) childCell(k cellKey, dir string, reruns int, cc *childCell) error {
	p, ok := b.programByName(k.prog)
	if !ok {
		return fmt.Errorf("unknown program %q", k.prog)
	}
	src := bench.Source(p)
	before, err := countArtifacts(dir)
	if err != nil {
		return err
	}
	cfg := driver.Configurations()[k.cfg]
	cfg.Workers = workers
	settle()
	t0 := time.Now()
	c, err := driver.CompileSource(k.prog+".c", src, cfg)
	if err != nil {
		return err
	}
	prog := interp.Flatten(c.Module, false)
	t1 := time.Now()
	a, err := native.Build(prog, true, native.Options{Backend: native.BackendPlugin, CacheDir: dir})
	t2 := time.Now()
	if err != nil {
		return err
	}
	res, err := a.Run(interp.Options{})
	t3 := time.Now()
	if err != nil {
		return err
	}
	cc.TotalNS, cc.BuildNS = t3.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
	cc.Ops = res.Counts.Ops
	after, err := countArtifacts(dir)
	if err != nil {
		return err
	}
	switch {
	case before == after:
	case before+1 == after:
		cc.Built = true
	default:
		return fmt.Errorf("%d artifacts before the build, %d after", before, after)
	}
	if err := b.checkOutput(k.prog, res); err != nil {
		return err
	}
	if reruns == 0 {
		return nil
	}
	opts := interp.Options{Engine: interp.EngineFlat}
	if err := c.PrepareEngine(opts); err != nil {
		return err
	}
	cc.FlatNS, err = timeBatch(reruns, func() error {
		fres, err := c.Execute(opts)
		if err == nil && fres.Counts != res.Counts {
			err = fmt.Errorf("flat and native disagree: flat %+v, native %+v", fres.Counts, res.Counts)
		}
		return err
	})
	if err != nil {
		return err
	}
	cc.NativeNS, err = timeBatch(reruns, func() error {
		nres, err := a.Run(interp.Options{})
		if err == nil && nres.Counts != res.Counts {
			err = fmt.Errorf("native rerun counts %+v, first run %+v", nres.Counts, res.Counts)
		}
		return err
	})
	return err
}

// minBatch is the least time a batch of reruns takes. Single runs of a
// millisecond or so read bimodally on a shared virtual machine, and a
// median of bimodal samples jumps between the modes; the mean over a
// batch does not.
const minBatch = 20 * time.Millisecond

// timeBatch runs fn back to back, at least minRuns times and for at
// least minBatch, and returns the mean time per run in ns.
func timeBatch(minRuns int, fn func() error) (int64, error) {
	settle()
	t0 := time.Now()
	n := 0
	for n < minRuns || time.Since(t0) < minBatch {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(t0).Nanoseconds() / int64(n), nil
}

// warmToolchain builds one generated native source in plugin mode
// outside the artifact cache, so the toolchain's one-time rebuild of
// the standard library for plugins lands in set-up and never in a
// measured cold cell. The directory is fresh each time, so the build
// is real; the compile of measured programs stays cold because the
// toolchain keys its cache on the source directory.
func warmToolchain(root string) error {
	c, err := driver.CompileSource("warm.c", "int main(void) { print_int(1); return 0; }\n", driver.Config{Workers: workers})
	if err != nil {
		return fmt.Errorf("warm-up compile: %w", err)
	}
	dir, err := os.MkdirTemp(root, "warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	src := filepath.Join(dir, "warm.go")
	if err := os.WriteFile(src, []byte(interp.Flatten(c.Module, false).NativeSource(true)), 0o644); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-buildmode=plugin", "-o", filepath.Join(dir, "warm.so"), src)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("toolchain warm-up: %v\n%s", err, out)
	}
	return nil
}
