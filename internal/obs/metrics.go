package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the observability layer: a
// process-wide registry of named counters, gauges and histograms that
// the driver, dataflow kernel, both interpreter engines, the IL
// checker and the differential tester report into. The registry is
// off by default; instrumentation sites call Metrics(), get nil, and
// every method on a nil Counter/Gauge/Histogram is a no-op — so the
// disabled cost is one atomic pointer load per report site, far off
// any per-instruction hot path. All mutation is atomic, so parallel
// middle-end workers and fuzz workers report without locks.

// Counter is a monotonically increasing sum. Nil-safe.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-writer-wins level with a monotonic-max helper.
// Nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger. Max is commutative, so
// parallel workers folding their own maxima produce the same value in
// any order.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: bounds[i] is the
// inclusive upper edge of bucket i, with one extra overflow bucket.
// Nil-safe.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	n      atomic.Int64
	sum    atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// Fixed bucket layouts shared by instrumentation sites. Treat as
// read-only.
var (
	// DurationBucketsNS spans 1µs to 10s in decades — wide enough for
	// a single pass and a whole compile.
	DurationBucketsNS = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	// SizeBuckets is powers of two for set sizes and iteration counts.
	SizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}
)

// Registry holds named metrics. A nil *Registry hands out nil
// instruments, so call sites never branch. Construct with
// NewRegistry, or use the process-wide one via EnableMetrics.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket layout on first use; later calls reuse the existing layout.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// MetricValue is one named counter or gauge reading.
type MetricValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram reading: Counts[i] samples fell at
// or below Bounds[i]; the final entry of Counts is the overflow
// bucket.
type HistogramValue struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
}

// MetricsSnapshot is a point-in-time, name-sorted copy of a registry,
// the form metrics take when printed (Format) or exported (WriteJSON).
type MetricsSnapshot struct {
	Counters   []MetricValue    `json:"counters,omitempty"`
	Gauges     []MetricValue    `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the registry. The result is deterministic for a
// deterministic workload: counters are commutative sums and gauges
// are maxima at their fold sites, so worker scheduling cannot change
// the values.
func (r *Registry) Snapshot() *MetricsSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &MetricsSnapshot{}
	for name, c := range r.counts {
		s.Counters = append(s.Counters, MetricValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:   name,
			Count:  h.n.Load(),
			Sum:    h.sum.Load(),
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter looks up a counter reading by name.
func (s *MetricsSnapshot) Counter(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge looks up a gauge reading by name.
func (s *MetricsSnapshot) Gauge(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Format renders the snapshot as an aligned text table, one metric
// per line, histograms summarized as count/sum.
func (s *MetricsSnapshot) Format() string {
	if s == nil || (len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0) {
		return ""
	}
	var b strings.Builder
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%-*s  %d\n", width, c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "%-*s  %d (gauge)\n", width, g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%-*s  n=%d sum=%d\n", width, h.Name, h.Count, h.Sum)
	}
	return b.String()
}

// WriteJSON emits the snapshot as indented JSON.
func (s *MetricsSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// globalMetrics is the process-wide registry; nil means disabled.
var globalMetrics atomic.Pointer[Registry]

// EnableMetrics switches the process-wide registry on (idempotent)
// and returns it.
func EnableMetrics() *Registry {
	if r := globalMetrics.Load(); r != nil {
		return r
	}
	r := NewRegistry()
	if globalMetrics.CompareAndSwap(nil, r) {
		return r
	}
	return globalMetrics.Load()
}

// DisableMetrics switches the process-wide registry off, discarding
// its contents.
func DisableMetrics() { globalMetrics.Store(nil) }

// Metrics returns the process-wide registry, or nil when disabled.
// Instrumentation sites use it directly:
//
//	obs.Metrics().Counter("dataflow.steps").Add(n)
//
// which costs one atomic load when disabled.
func Metrics() *Registry { return globalMetrics.Load() }
