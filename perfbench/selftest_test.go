package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// The self-test runs each workload briefly, twice in each mode, as the
// benchmark's own binary would: every cell must pass, every metric that
// BENCHMARK.json declares must be printed with its unit, and the
// deterministic counts must repeat exactly from run to run.
//
//	cd perfbench && go test -timeout 30m .

func TestMain(m *testing.M) {
	// The test binary doubles as the benchmark binary for the runs it
	// starts, including the warm-pass child processes.
	if os.Getenv("PERFBENCH_SELFTEST_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// counts are the metrics that must repeat exactly across runs.
var counts = []string{
	"fig5_ops_ratio", "fig6_stores_ratio", "fig7_loads_ratio",
	"interp.dyn_ops", "interp.dyn_loads", "interp.dyn_stores",
	"regalloc.spilled", "cache.hit_ratio", "native.builds",
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range d.Work {
		t.Run(w.Name, func(t *testing.T) {
			for trace, want := range [][]struct{ Name, Unit string }{d.EndToEnd, d.PerLayer} {
				first := benchOnce(t, dir, w.Name, trace)
				second := benchOnce(t, dir, w.Name, trace)
				for _, r := range []result{first, second} {
					if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
						t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, r.Correct, r.Attempted, r.Failed)
					}
					if len(r.Metrics) != len(want) {
						t.Errorf("trace %d: %d metrics printed, %d declared", trace, len(r.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := r.Metrics[m.Name]
						if !ok || got.Unit != m.Unit {
							t.Errorf("trace %d: metric %s printed as %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
						}
					}
				}
				if trace == 0 && first.Metrics["pass_frac"].Value != 1 {
					t.Errorf("pass_frac = %v, want 1", first.Metrics["pass_frac"].Value)
				}
				for _, name := range counts {
					a, ok := first.Metrics[name]
					if ok && a != second.Metrics[name] {
						t.Errorf("trace %d: %s differs between runs: %v vs %v", trace, name, a.Value, second.Metrics[name].Value)
					}
				}
			}
		})
	}
}

// benchOnce runs the benchmark for one second and returns its result.
func benchOnce(t *testing.T, dir, workload string, trace int) result {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", strconv.Itoa(trace))
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "PERFBENCH_SELFTEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s --trace %d: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s --trace %d: last line is not the result: %v", workload, trace, err)
	}
	return r
}
