package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"regpromo/internal/analysis/certify"
	"regpromo/internal/obs"
)

// This file is the regression-detection half of the benchmark
// harness: it loads the accumulated BENCH_*.json history (Trend),
// diffs two reports cell by cell (Compare), and classifies the deltas
// into regressions and improvements against a percentage threshold.
//
// Only deterministic quantities gate the verdict — dynamic operation
// counts, loads, stores, promotions, spills. Wall-clock stage times
// and the process-wide metrics snapshot are diffed too, but
// informationally: they vary run to run on shared hardware, and a
// regression gate that flakes on scheduling noise trains people to
// ignore it.

// Delta is one compared quantity between two reports.
type Delta struct {
	// Program and Config locate the cell ("" for whole-report
	// quantities like process metrics).
	Program string `json:"program,omitempty"`
	Config  string `json:"config,omitempty"`
	// Metric names the compared quantity ("ops", "loads", "stores",
	// "promotions", "spilled", "compile_ns", "stage_ns/<stage>",
	// "metric/<name>").
	Metric string `json:"metric"`
	Old    int64  `json:"old"`
	New    int64  `json:"new"`
	// Percent is the signed relative change, 100*(new-old)/old.
	Percent float64 `json:"percent"`
	// Worse is the direction-adjusted verdict: true when the change
	// moves the metric the bad way (more ops, fewer promotions).
	Worse bool `json:"worse"`
	// Gated marks deterministic quantities that participate in the
	// nonzero-exit threshold; ungated deltas are informational.
	Gated bool `json:"gated"`
}

// CompareReport is the full diff of two benchmark reports.
type CompareReport struct {
	OldPath string `json:"old_path,omitempty"`
	NewPath string `json:"new_path,omitempty"`
	// Threshold is the gating percentage: a gated delta whose
	// magnitude reaches it is a regression (or improvement).
	Threshold float64 `json:"threshold"`
	Deltas    []Delta `json:"deltas"`
	// SkippedCells counts (program, config) cells present in only one
	// of the two reports and therefore not compared.
	SkippedCells int `json:"skipped_cells,omitempty"`
}

// configKey labels a configuration cell for display and matching.
func configKey(c *ConfigReport) string {
	if c.Promote {
		return c.Analysis + "+promote"
	}
	return c.Analysis
}

// pct computes the signed relative change; a move away from zero
// counts as 100%.
func pct(old, cur int64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return 100 * float64(cur-old) / float64(old)
}

// delta assembles one Delta; higherIsBetter flips the Worse verdict
// for quantities (promotions) where growth is the good direction.
func delta(program, config, metric string, old, cur int64, higherIsBetter, gated bool) Delta {
	worse := cur > old
	if higherIsBetter {
		worse = cur < old
	}
	return Delta{
		Program: program,
		Config:  config,
		Metric:  metric,
		Old:     old,
		New:     cur,
		Percent: pct(old, cur),
		Worse:   old != cur && worse,
		Gated:   gated,
	}
}

// Compare diffs two benchmark reports cell by cell. Every quantity is
// reported as a Delta; only the deterministic ones are gated (see the
// file comment). Cells present in only one report are skipped and
// counted.
func Compare(old, cur *Report, threshold float64) *CompareReport {
	cr := &CompareReport{Threshold: threshold}
	gatePressure := old.schemaVersion() >= pressureSchema && cur.schemaVersion() >= pressureSchema
	for i := range cur.Programs {
		np := &cur.Programs[i]
		op, ok := old.Program(np.Name)
		if !ok {
			cr.SkippedCells += len(np.Configs)
			continue
		}
		for j := range np.Configs {
			nc := &np.Configs[j]
			oc, ok := op.Config(nc.Analysis, nc.Promote)
			if !ok {
				cr.SkippedCells++
				continue
			}
			key := configKey(nc)
			cr.Deltas = append(cr.Deltas,
				delta(np.Name, key, "ops", oc.Counts.Ops, nc.Counts.Ops, false, true),
				delta(np.Name, key, "loads", oc.Counts.Loads, nc.Counts.Loads, false, true),
				delta(np.Name, key, "stores", oc.Counts.Stores, nc.Counts.Stores, false, true),
				delta(np.Name, key, "promotions", int64(oc.Promotions), int64(nc.Promotions), true, true),
				delta(np.Name, key, "spilled", int64(oc.Spilled), int64(nc.Spilled), false, true),
				delta(np.Name, key, "compile_ns", oc.CompileNS, nc.CompileNS, false, false),
			)
			// Static pressure (schema 6+) is deterministic, so it gates:
			// a promotion change that pushes a site over the register
			// budget — or deepens the worst boundary — is a regression
			// even when the dynamic counts improve (the spilling shows
			// up at allocation, not in the interpreter's counters). It
			// gates only when both reports record it: an older report
			// never measured pressure, so its empty cells are unknown,
			// not zero.
			if gatePressure && (len(oc.Pressure) > 0 || len(nc.Pressure) > 0) {
				cr.Deltas = append(cr.Deltas,
					delta(np.Name, key, "pressure/over_budget", overBudgetSites(oc.Pressure), overBudgetSites(nc.Pressure), false, true),
					delta(np.Name, key, "pressure/max_live", worstMaxLive(oc.Pressure), worstMaxLive(nc.Pressure), false, true),
				)
			}
			for _, stage := range sortedStageNames(oc.StageNS, nc.StageNS) {
				cr.Deltas = append(cr.Deltas,
					delta(np.Name, key, "stage_ns/"+stage, oc.StageNS[stage], nc.StageNS[stage], false, false))
			}
			// Per-engine execution wall times (schema 5+). An engine
			// is compared only when both reports carry a cell for it:
			// a pre-native baseline diffed against a multi-engine run
			// simply skips the engines it never measured instead of
			// failing the comparison. ExecFor's legacy fallback maps
			// an old single-Exec report onto its engine name, so the
			// flat series stays continuous across the schema bump.
			// Wall times are informational, like every other timing.
			for _, engine := range execEngines(oc, nc) {
				oe, okOld := oc.ExecFor(engine)
				ne, okNew := nc.ExecFor(engine)
				if !okOld || !okNew {
					continue
				}
				cr.Deltas = append(cr.Deltas,
					delta(np.Name, key, "exec_ns/"+engine, oe.DurationNS, ne.DurationNS, false, false))
			}
		}
	}
	// Scale-tier cell: the deterministic work counts gate (an
	// incremental-analysis regression shows up as warm sccs_solved
	// growing or sccs_cached shrinking); wall-clock times and the
	// derived speedup stay informational. Identical is gated with a
	// zero-tolerance reading: any flip from 1 to 0 is a 100% move.
	if old.Scale != nil && cur.Scale != nil &&
		old.Scale.Seed == cur.Scale.Seed && old.Scale.Functions == cur.Scale.Functions {
		os, cs := old.Scale, cur.Scale
		cr.Deltas = append(cr.Deltas,
			delta("scale", "", "sccs", int64(os.SCCs), int64(cs.SCCs), false, false),
			delta("scale", "", "cold/sccs_solved", int64(os.Cold.SCCsSolved), int64(cs.Cold.SCCsSolved), false, true),
			delta("scale", "", "warm/sccs_solved", int64(os.Warm.SCCsSolved), int64(cs.Warm.SCCsSolved), false, true),
			delta("scale", "", "warm/sccs_cached", int64(os.Warm.SCCsCached), int64(cs.Warm.SCCsCached), true, true),
			delta("scale", "", "identical", boolInt(os.Identical), boolInt(cs.Identical), true, true),
			delta("scale", "", "cold/analysis_ns", os.Cold.AnalysisNS, cs.Cold.AnalysisNS, false, false),
			delta("scale", "", "warm/analysis_ns", os.Warm.AnalysisNS, cs.Warm.AnalysisNS, false, false),
		)
	}
	// Process-wide metrics: counters only, informational — they fold
	// in everything the process did, not just the matrix.
	if old.Metrics != nil && cur.Metrics != nil {
		for _, nc := range cur.Metrics.Counters {
			if ov, ok := old.Metrics.Counter(nc.Name); ok {
				cr.Deltas = append(cr.Deltas,
					delta("", "", "metric/"+nc.Name, ov, nc.Value, false, false))
			}
		}
	}
	return cr
}

// pressureSchema is the first schema version that records the static
// register-pressure reports (ConfigReport.Pressure).
const pressureSchema = 6

// schemaVersion returns N of the report's "regpromo-bench/N" schema,
// or 0 when it does not parse.
func (r *Report) schemaVersion() int {
	n, _ := strconv.Atoi(strings.TrimPrefix(r.Schema, "regpromo-bench/"))
	return n
}

// overBudgetSites counts a cell's promotion sites flagged over the
// register budget.
func overBudgetSites(ps []certify.Pressure) int64 {
	var n int64
	for i := range ps {
		if ps[i].OverBudget {
			n++
		}
	}
	return n
}

// worstMaxLive returns the largest simultaneously-live promoted-value
// count across a cell's promotion sites.
func worstMaxLive(ps []certify.Pressure) int64 {
	var max int64
	for i := range ps {
		if v := int64(ps[i].MaxLive); v > max {
			max = v
		}
	}
	return max
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// execEngines merges the engine names recorded by both cells'
// execution events, in stable order: the new cell's order first (it
// reflects the run's -engine list), then any engine only the old cell
// measured. A legacy cell (single Exec, no Execs) contributes its one
// engine name, with the pre-label era counting as flat.
func execEngines(old, cur *ConfigReport) []string {
	var names []string
	seen := map[string]bool{}
	add := func(events []obs.ExecEvent, legacy obs.ExecEvent) {
		for _, e := range events {
			if e.Engine != "" && !seen[e.Engine] {
				seen[e.Engine] = true
				names = append(names, e.Engine)
			}
		}
		if len(events) == 0 && legacy != (obs.ExecEvent{}) {
			name := legacy.Engine
			if name == "" {
				name = "flat"
			}
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	add(cur.Execs, cur.Exec)
	add(old.Execs, old.Exec)
	return names
}

// sortedStageNames merges the stage keys of both cells, sorted.
func sortedStageNames(a, b map[string]int64) []string {
	set := make(map[string]bool, len(a)+len(b))
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// overThreshold reports whether d's magnitude reaches the gate.
func (cr *CompareReport) overThreshold(d Delta) bool {
	mag := d.Percent
	if mag < 0 {
		mag = -mag
	}
	return mag >= cr.Threshold
}

// Regressions returns the gated deltas that moved the bad direction
// past the threshold — the set that makes OK() false.
func (cr *CompareReport) Regressions() []Delta {
	var out []Delta
	for _, d := range cr.Deltas {
		if d.Gated && d.Worse && cr.overThreshold(d) {
			out = append(out, d)
		}
	}
	return out
}

// Improvements returns the gated deltas that moved the good direction
// past the threshold.
func (cr *CompareReport) Improvements() []Delta {
	var out []Delta
	for _, d := range cr.Deltas {
		if d.Gated && !d.Worse && d.Old != d.New && cr.overThreshold(d) {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether the comparison found no gated regression.
func (cr *CompareReport) OK() bool { return len(cr.Regressions()) == 0 }

// Format renders the comparison as a table: regressions first, then
// improvements, then any informational delta past the threshold, then
// a one-line summary.
func (cr *CompareReport) Format() string {
	var sb strings.Builder
	row := func(verdict string, d Delta) {
		loc := d.Metric
		if d.Program != "" {
			loc = fmt.Sprintf("%s/%s %s", d.Program, d.Config, d.Metric)
		}
		fmt.Fprintf(&sb, "%-12s %-42s %14d -> %-14d %+7.2f%%\n", verdict, loc, d.Old, d.New, d.Percent)
	}
	regs := cr.Regressions()
	imps := cr.Improvements()
	for _, d := range regs {
		row("REGRESSION", d)
	}
	for _, d := range imps {
		row("improvement", d)
	}
	info := 0
	for _, d := range cr.Deltas {
		if !d.Gated && d.Old != d.New && cr.overThreshold(d) {
			row("info", d)
			info++
		}
	}
	if len(regs) == 0 && len(imps) == 0 && info == 0 {
		sb.WriteString("no change past threshold\n")
	}
	fmt.Fprintf(&sb, "compared %d deltas (threshold %.2f%%): %d regression(s), %d improvement(s)",
		len(cr.Deltas), cr.Threshold, len(regs), len(imps))
	if cr.SkippedCells > 0 {
		fmt.Fprintf(&sb, ", %d cell(s) skipped (present in only one report)", cr.SkippedCells)
	}
	sb.WriteString("\n")
	return sb.String()
}

// TrendPoint is one loaded report of the history.
type TrendPoint struct {
	Path   string
	Report *Report
}

// Trend is the accumulated BENCH_*.json history, oldest first
// (timestamped filenames sort chronologically).
type Trend struct {
	Points []TrendPoint
}

// LoadTrend loads every BENCH_*.json in dir, in filename order. It
// returns os.ErrNotExist when the directory holds no reports.
func LoadTrend(dir string) (*Trend, error) {
	matches, err := filepath.Glob(filepath.Join(dir, BaselineGlob))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, os.ErrNotExist
	}
	sort.Strings(matches)
	t := &Trend{}
	for _, path := range matches {
		r, err := LoadReport(path)
		if err != nil {
			return nil, err
		}
		t.Points = append(t.Points, TrendPoint{Path: path, Report: r})
	}
	return t, nil
}

// totals sums a report's deterministic headline quantities across all
// cells.
func totals(r *Report) (ops, promotions, compileNS int64) {
	for i := range r.Programs {
		for j := range r.Programs[i].Configs {
			c := &r.Programs[i].Configs[j]
			ops += c.Counts.Ops
			promotions += int64(c.Promotions)
			compileNS += c.CompileNS
		}
	}
	return
}

// Compare diffs the two newest reports of the history against the
// threshold, or returns nil when fewer than two reports exist.
func (t *Trend) Compare(threshold float64) *CompareReport {
	if len(t.Points) < 2 {
		return nil
	}
	prev := t.Points[len(t.Points)-2]
	last := t.Points[len(t.Points)-1]
	cr := Compare(prev.Report, last.Report, threshold)
	cr.OldPath, cr.NewPath = prev.Path, last.Path
	return cr
}

// Format renders the history as one line per report: headline totals
// plus the dynamic-ops change against the previous point.
func (t *Trend) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %-22s %16s %12s %14s %9s\n",
		"report", "timestamp", "total ops", "promotions", "compile_ns", "Δops")
	var prevOps int64
	for i, p := range t.Points {
		ops, promos, compileNS := totals(p.Report)
		change := "-"
		if i > 0 {
			change = fmt.Sprintf("%+.2f%%", pct(prevOps, ops))
		}
		fmt.Fprintf(&sb, "%-36s %-22s %16d %12d %14d %9s\n",
			filepath.Base(p.Path), p.Report.Timestamp, ops, promos, compileNS, change)
		prevOps = ops
	}
	return sb.String()
}

// BaselineBefore loads the newest BENCH_*.json in dir other than
// exclude (compared by cleaned path), for comparing a fresh report
// against the previous baseline. It returns os.ErrNotExist when no
// other baseline exists.
func BaselineBefore(dir, exclude string) (*Report, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, BaselineGlob))
	if err != nil {
		return nil, "", err
	}
	sort.Strings(matches)
	ex := filepath.Clean(exclude)
	for i := len(matches) - 1; i >= 0; i-- {
		if filepath.Clean(matches[i]) == ex {
			continue
		}
		r, err := LoadReport(matches[i])
		if err != nil {
			return nil, "", err
		}
		return r, matches[i], nil
	}
	return nil, "", os.ErrNotExist
}
