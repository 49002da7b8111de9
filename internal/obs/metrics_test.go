package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.SetMax(7) // lower: ignored
	g.SetMax(12)
	if got := g.Value(); got != 12 {
		t.Errorf("gauge = %d, want 12", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	hv := s.Histograms[0]
	if hv.Count != 5 || hv.Sum != 1122 {
		t.Errorf("count/sum = %d/%d, want 5/1122", hv.Count, hv.Sum)
	}
	// Bounds are inclusive upper edges; the final bucket is overflow.
	if want := []int64{2, 2, 1}; !reflect.DeepEqual(hv.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", hv.Counts, want)
	}
}

// TestNilInstruments checks the disabled path: a nil registry hands
// out nil instruments whose methods all no-op.
func TestNilInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := r.Gauge("x")
	g.Set(1)
	g.SetMax(2)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	r.Histogram("x", SizeBuckets).Observe(5)
	if r.Snapshot() != nil {
		t.Error("nil registry produced a snapshot")
	}
}

// TestSnapshotSorted checks that snapshots come back name-sorted
// regardless of registration order, so their JSON is deterministic.
func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
		r.Gauge("g." + name).Set(1)
		r.Histogram("h."+name, SizeBuckets).Observe(1)
	}
	s := r.Snapshot()
	var counters []string
	for _, c := range s.Counters {
		counters = append(counters, c.Name)
	}
	if want := []string{"alpha", "mid", "zeta"}; !reflect.DeepEqual(counters, want) {
		t.Errorf("counters = %v, want %v", counters, want)
	}
	for i := 1; i < len(s.Gauges); i++ {
		if s.Gauges[i-1].Name > s.Gauges[i].Name {
			t.Errorf("gauges unsorted: %s before %s", s.Gauges[i-1].Name, s.Gauges[i].Name)
		}
	}
	for i := 1; i < len(s.Histograms); i++ {
		if s.Histograms[i-1].Name > s.Histograms[i].Name {
			t.Errorf("histograms unsorted: %s before %s", s.Histograms[i-1].Name, s.Histograms[i].Name)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("interp.ops").Add(42)
	r.Gauge("regalloc.max_live").SetMax(7)
	r.Histogram("native.build_ns", DurationBucketsNS).Observe(5000)
	s := r.Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, s) {
		t.Errorf("round trip changed snapshot:\ngot  %+v\nwant %+v", got, s)
	}
	if v, ok := got.Counter("interp.ops"); !ok || v != 42 {
		t.Errorf("Counter lookup = %d,%v, want 42,true", v, ok)
	}
	if v, ok := got.Gauge("regalloc.max_live"); !ok || v != 7 {
		t.Errorf("Gauge lookup = %d,%v, want 7,true", v, ok)
	}
}

func TestSnapshotFormat(t *testing.T) {
	var nilSnap *MetricsSnapshot
	if got := nilSnap.Format(); got != "" {
		t.Errorf("nil snapshot formats as %q", got)
	}
	if got := (&MetricsSnapshot{}).Format(); got != "" {
		t.Errorf("empty snapshot formats as %q", got)
	}
	r := NewRegistry()
	r.Counter("interp.ops").Add(9)
	r.Gauge("max").Set(3)
	out := r.Snapshot().Format()
	if !strings.Contains(out, "interp.ops  9") || !strings.Contains(out, "(gauge)") {
		t.Errorf("unexpected format output:\n%s", out)
	}
}

// TestGlobalEnableDisable checks the process-wide switch: off by
// default, idempotent enable, discard on disable.
func TestGlobalEnableDisable(t *testing.T) {
	DisableMetrics()
	defer DisableMetrics()
	if Metrics() != nil {
		t.Fatal("metrics enabled before EnableMetrics")
	}
	// The disabled fast path must tolerate call chains.
	Metrics().Counter("x").Inc()
	r := EnableMetrics()
	if r == nil || Metrics() != r {
		t.Fatal("EnableMetrics did not install the registry")
	}
	if again := EnableMetrics(); again != r {
		t.Error("EnableMetrics is not idempotent")
	}
	Metrics().Counter("x").Inc()
	if v, _ := r.Snapshot().Counter("x"); v != 1 {
		t.Errorf("counter = %d, want 1", v)
	}
	DisableMetrics()
	if Metrics() != nil {
		t.Error("metrics still enabled after DisableMetrics")
	}
}

// TestMetricsConcurrent hammers one registry from many goroutines:
// counters must sum exactly, gauges must fold to the true max.
func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(w*per + i))
				r.Histogram("h", SizeBuckets).Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per-1 {
		t.Errorf("gauge max = %d, want %d", got, workers*per-1)
	}
	s := r.Snapshot()
	if s.Histograms[0].Count != workers*per {
		t.Errorf("histogram count = %d, want %d", s.Histograms[0].Count, workers*per)
	}
}
