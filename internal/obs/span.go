package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"regpromo/internal/ir"
)

// This file is the span half of the observability layer: hierarchical
// wall-clock spans (compile → passes → per-function middle-end work
// items, plus interpreter execute spans) with numeric attributes and
// string labels, collected by a Tracer and exportable as Chrome
// trace_event JSON viewable in about:tracing or Perfetto. Pass spans
// also carry PassAttrs, which Tracer.Passes folds into per-pass rows.
//
// Everything is nil-safe: a nil *Tracer hands out zero Spans whose
// methods do nothing, so instrumented code pays one pointer test when
// tracing is off.

// SpanEvent is one completed span. Times are nanoseconds relative to
// the tracer's epoch (its construction time), so a span list is
// self-contained and deterministic under a fake clock.
type SpanEvent struct {
	// Name identifies the span ("compile", a pass name, a function
	// name for middle-end work items, "execute").
	Name string `json:"name"`
	// Cat is the span's category ("compile", "pass", "middleend",
	// "interp"); Chrome's trace viewer filters on it.
	Cat string `json:"cat,omitempty"`
	// TID is the logical thread the span ran on: 0 is the coordinating
	// goroutine, worker w of the parallel middle end is w+1. Spans on
	// one TID nest by time containment in trace viewers.
	TID int `json:"tid"`
	// StartNS and DurNS position the span relative to the tracer
	// epoch.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Args carries numeric attributes (dataflow iterations, worklist
	// pushes, tagset sizes, promotion and spill counts, register
	// pressure, dynamic counts, …).
	Args map[string]int64 `json:"args,omitempty"`
	// Labels carries string attributes (function name, engine, …).
	Labels map[string]string `json:"labels,omitempty"`
	// Pass is set on pass spans only.
	Pass *PassAttrs `json:"pass,omitempty"`
}

// PassAttrs are what make a span a pass span: the pass's position in
// the pipeline and the static snapshots of its scope (the module, or
// the one function a per-function span covers). A pass's extras are
// the span's Args.
type PassAttrs struct {
	Index  int      `json:"index"`
	Before Snapshot `json:"before"`
	After  Snapshot `json:"after"`
	// Summary marks the span that closes a per-function pass on the
	// coordinating thread once every function has run it. It carries
	// no snapshots; its args, if any, are the pass's module-wide
	// totals.
	Summary bool `json:"summary,omitempty"`
	// IRDump is the module's IL after the pass, when the tracer's
	// DumpPass asked for it.
	IRDump string `json:"ir_dump,omitempty"`
}

// Tracer collects spans from any number of goroutines. The zero value
// is not usable; construct with NewTracer. A nil *Tracer is a valid
// no-op tracer.
type Tracer struct {
	// DumpPass names the pass whose output IL its pass span captures
	// (DumpAll captures every pass). Set it before the compile starts.
	DumpPass string

	mu      sync.Mutex
	epoch   time.Time
	now     func() time.Time // test hook; time.Now outside tests
	spans   []SpanEvent
	threads map[int]string
}

// NewTracer returns a tracer whose epoch is the current time.
func NewTracer() *Tracer { return newTracerClock(time.Now) }

// newTracerClock is the deterministic constructor tests use: now is
// called once at construction (the epoch) and once per span start and
// end.
func newTracerClock(now func() time.Time) *Tracer {
	t := &Tracer{now: now, threads: make(map[int]string)}
	t.epoch = t.now()
	return t
}

// Span is an open span handle. The zero Span (from a nil tracer)
// discards everything.
type Span struct {
	t          *Tracer
	ev         *SpanEvent
	start, end time.Time
}

// Start opens a span on logical thread tid. End completes it.
func (t *Tracer) Start(name, cat string, tid int) Span {
	if t == nil {
		return Span{}
	}
	now := t.now()
	return Span{
		t:     t,
		start: now,
		ev: &SpanEvent{
			Name:    name,
			Cat:     cat,
			TID:     tid,
			StartNS: now.Sub(t.epoch).Nanoseconds(),
		},
	}
}

// Arg attaches one numeric attribute and returns the span for
// chaining.
func (s Span) Arg(k string, v int64) Span {
	if s.t == nil {
		return s
	}
	if s.ev.Args == nil {
		s.ev.Args = make(map[string]int64)
	}
	s.ev.Args[k] = v
	return s
}

// AddArgs merges a numeric attribute map (pass extras fold in here).
func (s Span) AddArgs(m map[string]int64) Span {
	for k, v := range m {
		s = s.Arg(k, v)
	}
	return s
}

// Label attaches one string attribute and returns the span for
// chaining.
func (s Span) Label(k, v string) Span {
	if s.t == nil {
		return s
	}
	if s.ev.Labels == nil {
		s.ev.Labels = make(map[string]string)
	}
	s.ev.Labels[k] = v
	return s
}

// Pass marks the span as a pass span carrying p.
func (s Span) Pass(p PassAttrs) Span {
	if s.t != nil {
		s.ev.Pass = &p
	}
	return s
}

// Stop freezes the span's clock; End then records the span with that
// duration. Work done between the two, such as measuring what a pass
// did, is not billed to the span.
func (s Span) Stop() Span {
	if s.t != nil {
		s.end = s.t.now()
	}
	return s
}

// End completes the span and records it on the tracer. Safe from any
// goroutine; a zero Span does nothing.
func (s Span) End() {
	if s.t == nil {
		return
	}
	if s.end.IsZero() {
		s.end = s.t.now()
	}
	s.ev.DurNS = s.end.Sub(s.start).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, *s.ev)
	s.t.mu.Unlock()
}

// DumpIR returns m's IL if DumpPass asks for pass name, else "".
func (t *Tracer) DumpIR(name string, m *ir.Module) string {
	if t == nil || m == nil || (t.DumpPass != DumpAll && t.DumpPass != name) {
		return ""
	}
	return ir.FormatModule(m)
}

// NameThread assigns a display name to a logical thread id, emitted
// as thread_name metadata in the Chrome export.
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// Spans returns the completed spans sorted by start time (ties broken
// by TID, then name): workers complete spans in scheduling order, so
// the raw append order is nondeterministic while the sorted view is
// stable for identical timings.
func (t *Tracer) Spans() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanEvent, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	return out
}

// chromeEvent is one Chrome trace_event record. "X" complete events
// carry microsecond ts/dur; "M" metadata events name threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container format trace viewers
// accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTraceFile writes the span stream to path as Chrome
// trace_event JSON.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteChromeTrace emits the span stream as Chrome trace_event JSON:
// open the file in about:tracing or https://ui.perfetto.dev. Spans on
// one tid nest by time containment: on tid 0 the compile span
// contains the module-wide pass spans, and on each worker tid a
// function's middle-end span contains its per-function pass spans.
// Output is deterministic given deterministic timings (spans sorted,
// map keys sorted by encoding/json).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var events []chromeEvent
	t.mu.Lock()
	threads := make(map[int]string, len(t.threads))
	for tid, name := range t.threads {
		threads[tid] = name
	}
	t.mu.Unlock()
	var tids []int
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			PID:  1,
			TID:  tid,
			Args: map[string]any{"name": threads[tid]},
		})
	}
	for _, sp := range t.Spans() {
		args := make(map[string]any, len(sp.Args)+len(sp.Labels))
		for k, v := range sp.Args {
			args[k] = v
		}
		for k, v := range sp.Labels {
			args[k] = v
		}
		if len(args) == 0 {
			args = nil
		}
		dur := float64(sp.DurNS) / 1e3
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			TS:   float64(sp.StartNS) / 1e3,
			Dur:  &dur,
			PID:  1,
			TID:  sp.TID,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
