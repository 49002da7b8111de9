package driver_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/obs"
)

// TestTracedParallelCompile compiles with the parallel middle end
// under a tracer and checks the structure of the Chrome export: valid
// JSON, a root compile span on tid 0, and middle-end function spans
// attributed to worker threads (tid >= 1) carrying their worker id.
func TestTracedParallelCompile(t *testing.T) {
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	cfg := driver.Config{Analysis: driver.PointsTo, Promote: true, Workers: 4}
	if _, err := fe.Compile(cfg, tr); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}

	var sawCompile, sawWorkerSpan, sawThreadName bool
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				sawThreadName = true
			}
		case "X":
			if ev.PID != 1 {
				t.Errorf("span %q: pid = %d, want 1", ev.Name, ev.PID)
			}
			if ev.Dur == nil {
				t.Errorf("span %q: missing dur", ev.Name)
			}
			if ev.Name == "compile" && ev.TID == 0 {
				sawCompile = true
			}
			if ev.Cat == "middleend" {
				if ev.TID < 1 {
					t.Errorf("middle-end span %q on tid %d, want >= 1", ev.Name, ev.TID)
				}
				if _, ok := ev.Args["worker"]; !ok {
					t.Errorf("middle-end span %q: no worker attribute", ev.Name)
				}
				sawWorkerSpan = true
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if !sawCompile {
		t.Error("no root compile span on tid 0")
	}
	if !sawWorkerSpan {
		t.Error("no worker-attributed middle-end span")
	}
	if !sawThreadName {
		t.Error("no thread_name metadata")
	}

	// The analysis pass spans carry their fixpoint work as args.
	want := map[string]string{driver.PassModRef: "sccs_solved", driver.PassPointsTo: "steps"}
	for _, sp := range tr.Spans() {
		if arg, ok := want[sp.Name]; ok && sp.Pass != nil {
			if _, has := sp.Args[arg]; !has {
				t.Errorf("%s pass span lacks %s: %v", sp.Name, arg, sp.Args)
			}
			delete(want, sp.Name)
		}
	}
	for name := range want {
		t.Errorf("no %s pass span", name)
	}
}

// TestMetricsIndependentOfTracing compiles one program with metrics
// on, untraced and traced, at the default worker count and serially:
// every run reports the same metric names and the same pass count.
func TestMetricsIndependentOfTracing(t *testing.T) {
	p := bench.Suite()[0]
	collect := func(tr *obs.Tracer, workers int) (names []string, passes int64) {
		obs.DisableMetrics()
		r := obs.EnableMetrics()
		defer obs.DisableMetrics()
		if _, err := driver.Compile(p.Name+".c", bench.Source(p), driver.Config{Workers: workers}, tr); err != nil {
			t.Fatal(err)
		}
		s := r.Snapshot()
		for _, m := range s.Counters {
			names = append(names, m.Name)
		}
		for _, m := range s.Gauges {
			names = append(names, m.Name)
		}
		for _, h := range s.Histograms {
			names = append(names, h.Name)
		}
		passes, _ = s.Counter("compile.passes")
		return names, passes
	}
	want, wantPasses := collect(nil, 0)
	if n := int64(1 + len(driver.Config{}.Passes())); wantPasses != n {
		t.Errorf("compile.passes = %d, want %d (front end + pass list)", wantPasses, n)
	}
	for _, workers := range []int{0, 1} {
		got, passes := collect(obs.NewTracer(), workers)
		if !reflect.DeepEqual(got, want) || passes != wantPasses {
			t.Errorf("workers=%d traced: metrics %v with %d passes, untraced %v with %d",
				workers, got, passes, want, wantPasses)
		}
	}
}

// benchCompileExecute is one compile+execute of the first suite
// program, the unit BenchmarkObsOverhead compares with observability
// off and on.
func benchCompileExecute(b *testing.B, fe *driver.Frontend, tr *obs.Tracer) {
	cfg := driver.Config{Analysis: driver.ModRef, Promote: true}
	c, err := fe.Compile(cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Execute(interp.Options{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObsOverhead quantifies the observability tax. The "off"
// variant is the default state — no tracer or metrics; the
// acceptance bar is that it stays within noise (≤1%) of what the
// compiler did before the span/metrics layer existed, which this
// benchmark makes checkable against the committed BenchmarkCompileMatrix
// history. The "spans+metrics" variant pays for full tracing.
func BenchmarkObsOverhead(b *testing.B) {
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		obs.DisableMetrics()
		for i := 0; i < b.N; i++ {
			benchCompileExecute(b, fe, nil)
		}
	})
	b.Run("spans+metrics", func(b *testing.B) {
		obs.EnableMetrics()
		defer obs.DisableMetrics()
		for i := 0; i < b.N; i++ {
			benchCompileExecute(b, fe, obs.NewTracer())
		}
	})
}
