package driver

import (
	"encoding/json"
	"reflect"
	"testing"

	"regpromo/internal/obs"
)

const passTestSrc = `
int total;
int hits;
void record(int v) { hits += v; }
int main(void) {
	int i;
	for (i = 0; i < 100; i++) {
		total += i;
		if (i % 10 == 0) record(i);
	}
	print_int(total);
	print_int(hits);
	return 0;
}`

// TestEveryPassFiresOncePerConfig compiles under each paper
// configuration with a tracer attached and checks the pass view is
// exactly the configuration's pass list (front end first), with no
// pass repeated or skipped.
func TestEveryPassFiresOncePerConfig(t *testing.T) {
	for _, cfg := range Configurations() {
		tr := obs.NewTracer()
		if _, err := Compile("t.c", passTestSrc, cfg, tr); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		want := append([]string{PassFrontend}, cfg.Passes()...)
		rows := tr.Passes()
		got := passNames(rows)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: pass stream = %v, want %v", cfg, got, want)
		}
		// The pointer pipeline runs MOD/REF twice by design (§4: the
		// analysis is repeated over the refined module), so multiplicity
		// is checked against the configuration's own pass list rather
		// than a flat once-each rule.
		wantCount := map[string]int{}
		for _, n := range want {
			wantCount[n]++
		}
		seen := map[string]int{}
		for _, n := range got {
			seen[n]++
		}
		for n, c := range seen {
			if c != wantCount[n] {
				t.Errorf("%+v: pass %s fired %d times, want %d", cfg, n, c, wantCount[n])
			}
		}
		for i, e := range rows {
			if e.Index != i {
				t.Errorf("%+v: event %s has index %d, want %d", cfg, e.Name, e.Index, i)
			}
		}
	}
}

// TestPassDeltasChain checks internal consistency of the recorded IR
// snapshots: pass N's after-state is pass N+1's before-state, and the
// final state matches a fresh measurement of the compiled module.
func TestPassDeltasChain(t *testing.T) {
	for _, cfg := range Configurations() {
		tr := obs.NewTracer()
		c, err := Compile("t.c", passTestSrc, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		evs := tr.Passes()
		for i := 1; i < len(evs); i++ {
			if evs[i].Before != evs[i-1].After {
				t.Errorf("%+v: %s.Before = %+v, want previous pass %s.After = %+v",
					cfg, evs[i].Name, evs[i].Before, evs[i-1].Name, evs[i-1].After)
			}
		}
		final := evs[len(evs)-1].After
		if got := obs.Measure(c.Module); got != final {
			t.Errorf("%+v: final snapshot %+v != measured module %+v", cfg, final, got)
		}
	}
}

// TestPromotionPassVisibleInTrace is the acceptance check: with
// promotion on, the promote pass's delta must show a nonzero
// reduction in in-loop tagged (scalar) loads and stores — the lifted
// load/store pair keeps module totals flat, but the loop census must
// drop — and its extra stats must carry the promotion counters.
func TestPromotionPassVisibleInTrace(t *testing.T) {
	tr := obs.NewTracer()
	if _, err := Compile("t.c", passTestSrc, modRefPromote(), tr); err != nil {
		t.Fatal(err)
	}
	ev := passRow(tr.Passes(), PassPromote)
	if ev == nil {
		t.Fatal("no promote event recorded")
	}
	d := ev.Delta()
	if d.Loop.ScalarLoads >= 0 || d.Loop.ScalarStores >= 0 {
		t.Fatalf("promotion should reduce in-loop tagged loads and stores, delta = %+v", d.Loop)
	}
	if ev.Extra["scalar_promotions"] <= 0 {
		t.Fatalf("promote extras missing scalar_promotions: %v", ev.Extra)
	}
}

// TestObservedCompileMatchesUnobserved: attaching a tracer that dumps
// every pass must not change what the compiler produces.
func TestObservedCompileMatchesUnobserved(t *testing.T) {
	for _, cfg := range Configurations() {
		plain, err := CompileSource("t.c", passTestSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		tr.DumpPass = obs.DumpAll
		observed, err := Compile("t.c", passTestSrc, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if obs.Measure(plain.Module) != obs.Measure(observed.Module) {
			t.Fatalf("%+v: tracing changed compilation", cfg)
		}
		if plain.Promote.Counters() != observed.Promote.Counters() || plain.Alloc != observed.Alloc {
			t.Fatalf("%+v: tracing changed statistics", cfg)
		}
	}
}

// TestDriverEventsRoundTripJSON serializes a real compilation's pass
// rows and checks they survive a JSON round trip intact.
func TestDriverEventsRoundTripJSON(t *testing.T) {
	tr := obs.NewTracer()
	tr.DumpPass = PassPromote
	if _, err := Compile("t.c", passTestSrc, modRefPromote(), tr); err != nil {
		t.Fatal(err)
	}
	rows := tr.Passes()
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []obs.PassEvent
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatal("driver pass rows do not round-trip through JSON")
	}
	for _, e := range rows {
		if (e.IRDump != "") != (e.Name == PassPromote) {
			t.Errorf("pass %s: IR dump present = %v, want only promote's", e.Name, e.IRDump != "")
		}
	}
}

// passNames lists the rows' pass names in order.
func passNames(rows []obs.PassEvent) []string {
	names := make([]string, len(rows))
	for i, e := range rows {
		names[i] = e.Name
	}
	return names
}

// passRow returns the first row with the given pass name, or nil.
func passRow(rows []obs.PassEvent, name string) *obs.PassEvent {
	for i := range rows {
		if rows[i].Name == name {
			return &rows[i]
		}
	}
	return nil
}

// modRefPromote is the paper's principal configuration, shared by the
// observability tests.
func modRefPromote() Config {
	return Config{Analysis: ModRef, Promote: true}
}
