package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"regpromo/internal/analysis/certify"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/par"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump it when the
// report shape changes; LoadReport reads only the current schema.
// regpromo-bench/7 made the report deterministic: it carries the
// dynamic counts, compile-side diagnostics, and static register
// pressure of every cell, and no wall-clock or process-wide field
// (timing is perfbench's job), so two runs of the same code write
// byte-identical reports.
const SchemaVersion = "regpromo-bench/7"

// BaselineGlob matches versioned benchmark reports in the repo root.
const BaselineGlob = "BENCH_*.json"

// Report is the machine-readable benchmark result: the paper's full
// figure matrix with the per-cell counts it is derived from. Every
// field is deterministic.
type Report struct {
	Schema string `json:"schema"`
	// MemLatency is the WeightedCycles memory-op weight in effect.
	MemLatency int             `json:"mem_latency"`
	Programs   []ProgramReport `json:"programs"`
	Figures    []FigureReport  `json:"figures"`
	// Scale is the scale-tier cell, present when the run included
	// `-tier scale`.
	Scale *ScaleReport `json:"scale,omitempty"`
}

// ProgramReport is one suite member's results across configurations.
type ProgramReport struct {
	Name    string         `json:"name"`
	Lines   int            `json:"lines"`
	Configs []ConfigReport `json:"configs"`
}

// ConfigReport is one (program, configuration) cell of the matrix.
type ConfigReport struct {
	// Analysis is "modref" or "pointer"; Promote marks the paper's
	// "with promotion" column.
	Analysis string `json:"analysis"`
	Promote  bool   `json:"promote"`
	// Counts are the dynamic execution counters (Figures 5, 6, and 7
	// feed off these).
	Counts interp.Counts `json:"counts"`
	// Promotions and Spilled are the compile-side diagnostics.
	Promotions int `json:"promotions"`
	Spilled    int `json:"spilled"`
	// Pressure is the static register-pressure report per promotion
	// site, present only in promoting configurations. An over-budget
	// site is the static signature of the paper's water anecdote.
	Pressure []certify.Pressure `json:"pressure,omitempty"`
}

// FigureReport is one rendered figure of the paper's matrix.
type FigureReport struct {
	Figure int         `json:"figure"`
	Metric string      `json:"metric"`
	Rows   []ReportRow `json:"rows"`
}

// ReportRow is one (program, analysis) line of a results table.
type ReportRow struct {
	Program  string `json:"program"`
	Analysis string `json:"analysis"`
	Without  int64  `json:"without"`
	With     int64  `json:"with"`
	// Difference is Without-With (positive means promotion removed
	// operations); PercentRemoved is the paper's "% removed" column.
	Difference     int64   `json:"difference"`
	PercentRemoved float64 `json:"percent_removed"`
}

// newRow fills in a row's derived columns.
func newRow(program, analysis string, without, with int64) ReportRow {
	r := ReportRow{Program: program, Analysis: analysis, Without: without, With: with, Difference: without - with}
	if without != 0 {
		r.PercentRemoved = 100 * float64(r.Difference) / float64(without)
	}
	return r
}

// figureNumbers maps each metric to its figure number (8 is this
// reproduction's weighted-cycles extension).
var figureNumbers = map[Metric]int{TotalOps: 5, Stores: 6, Loads: 7, WeightedCycles: 8}

// CollectReport runs the measurement matrix: each selected program
// is compiled and run under the four paper configurations ({modref,
// pointer} × {without, with promotion}), and the rows of Figures 5,
// 6, and 7 (plus the Figure 8 weighted-cycles extension) are derived
// from the same runs. A configuration that changes a program's
// observable output indicates a miscompilation and fails the run.
// Options.Parallel spreads the programs over a worker pool; results
// are assembled in suite order, so parallel and serial runs produce
// byte-identical reports.
func CollectReport(opts Options) (*Report, error) {
	programs := opts.selected()
	reports, err := par.ParallelMap(len(programs), opts.workers(), func(i int) (ProgramReport, error) {
		return collectProgram(programs[i], opts)
	})
	if err != nil {
		return nil, err
	}
	r := &Report{Schema: SchemaVersion, MemLatency: MemLatency, Programs: reports}
	r.Figures = r.buildFigures()
	return r, nil
}

// collectProgram measures one suite member under all four paper
// configurations. The front end runs once per program; each
// configuration's pipeline is forked from the shared artifact.
func collectProgram(p Program, opts Options) (ProgramReport, error) {
	pr := ProgramReport{Name: p.Name, Lines: Lines(p)}
	fe, err := driver.ParseSource(p.Name+".c", Source(p))
	if err != nil {
		return pr, fmt.Errorf("%s: %w", p.Name, err)
	}
	var outputs []string
	for _, analysis := range []driver.Analysis{driver.ModRef, driver.PointsTo} {
		for _, promote := range []bool{false, true} {
			cfg := driver.Config{Analysis: analysis, Promote: promote, K: opts.K, Certify: opts.Certify}
			if promote {
				cfg.PointerPromote = opts.PointerPromotion
			}
			c, err := fe.Compile(cfg, nil)
			if err != nil {
				return pr, fmt.Errorf("%s: %w", p.Name, err)
			}
			m, err := execute(p, c, opts.engineList())
			if err != nil {
				return pr, err
			}
			outputs = append(outputs, m.Output)
			pr.Configs = append(pr.Configs, ConfigReport{
				Analysis:   analysis.String(),
				Promote:    promote,
				Counts:     m.Counts,
				Promotions: m.Promote,
				Spilled:    m.Spilled,
				Pressure:   m.Pressure,
			})
		}
	}
	for _, o := range outputs[1:] {
		if o != outputs[0] {
			return pr, fmt.Errorf("%s: configurations disagree on program output", p.Name)
		}
	}
	return pr, nil
}

// buildFigures derives the rows of Figures 5, 6, and 7 — plus the
// Figure 8 weighted-cycles extension — from the per-config counts.
func (r *Report) buildFigures() []FigureReport {
	var figs []FigureReport
	for _, metric := range []Metric{TotalOps, Stores, Loads, WeightedCycles} {
		fr := FigureReport{Figure: figureNumbers[metric], Metric: metric.String()}
		for _, p := range r.Programs {
			for _, analysis := range []string{"modref", "pointer"} {
				without, okW := p.Config(analysis, false)
				with, okP := p.Config(analysis, true)
				if !okW || !okP {
					continue
				}
				fr.Rows = append(fr.Rows, newRow(p.Name, analysis, metric.pick(without.Counts), metric.pick(with.Counts)))
			}
		}
		figs = append(figs, fr)
	}
	return figs
}

// Figure returns figure n (5–8) of the report, if present.
func (r *Report) Figure(n int) (*FigureReport, bool) {
	for i := range r.Figures {
		if r.Figures[i].Figure == n {
			return &r.Figures[i], true
		}
	}
	return nil, false
}

// Config returns the cell for (analysis, promote), if present.
func (p *ProgramReport) Config(analysis string, promote bool) (*ConfigReport, bool) {
	for i := range p.Configs {
		c := &p.Configs[i]
		if c.Analysis == analysis && c.Promote == promote {
			return c, true
		}
	}
	return nil, false
}

// Program returns the named program's report, if present.
func (r *Report) Program(name string) (*ProgramReport, bool) {
	for i := range r.Programs {
		if r.Programs[i].Name == name {
			return &r.Programs[i], true
		}
	}
	return nil, false
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadReport reads one BENCH_*.json file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %q is not %q; regenerate the report with `go run ./cmd/rpbench -json`",
			path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// LatestBaseline loads the newest BENCH_*.json in dir (timestamped
// names sort chronologically). It returns os.ErrNotExist when no
// baseline has been recorded yet.
func LatestBaseline(dir string) (*Report, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, BaselineGlob))
	if err != nil {
		return nil, "", err
	}
	if len(matches) == 0 {
		return nil, "", os.ErrNotExist
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	r, err := LoadReport(path)
	if err != nil {
		return nil, "", err
	}
	return r, path, nil
}
