package driver

import (
	"testing"

	"regpromo/internal/interp"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
)

const frontendSrc = `
int g;
int acc[4];
int bump(int x) { g = g + x; return g; }
int main(void) {
	int i;
	for (i = 0; i < 10; i++) acc[i % 4] += bump(i);
	print_int(acc[0] + acc[1] + acc[2] + acc[3]);
	return g;
}`

// TestFrontendSharingMatchesRecompilation forks every differential
// configuration from one shared frontend artifact and checks the
// results are identical — counts, output, exit — to compiling each
// configuration from source.
func TestFrontendSharingMatchesRecompilation(t *testing.T) {
	fe, err := ParseSource("shared.c", frontendSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range DifferentialConfigurations(false) {
		full, err := CompileSource("shared.c", frontendSrc, nc.Config)
		if err != nil {
			t.Fatalf("%s: recompile: %v", nc.Name, err)
		}
		shared, err := fe.Compile(nc.Config, nil)
		if err != nil {
			t.Fatalf("%s: shared compile: %v", nc.Name, err)
		}
		if got, want := ir.FormatModule(shared.Module), ir.FormatModule(full.Module); got != want {
			t.Fatalf("%s: shared pipeline produced different IL\n--- recompiled\n%s\n--- shared\n%s", nc.Name, want, got)
		}
		r1, err := full.Execute(interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := shared.Execute(interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Counts != r2.Counts || r1.Exit != r2.Exit || r1.Output != r2.Output {
			t.Fatalf("%s: shared execution diverged: %+v exit=%d vs %+v exit=%d",
				nc.Name, r1.Counts, r1.Exit, r2.Counts, r2.Exit)
		}
	}
	if fe.Clones() != int64(len(DifferentialConfigurations(false))) {
		t.Fatalf("clone count = %d, want %d", fe.Clones(), len(DifferentialConfigurations(false)))
	}
}

// TestFrontendReuseTelemetry checks the tracer sees a
// "frontend.reuse" stage, carrying the reuse counters, in place of a
// repeated front-end run.
func TestFrontendReuseTelemetry(t *testing.T) {
	fe, err := ParseSource("shared.c", frontendSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	if _, err := fe.Compile(Config{Analysis: ModRef, Promote: true}, tr); err != nil {
		t.Fatal(err)
	}
	rows := tr.Passes()
	ev := passRow(rows, PassFrontendReuse)
	if ev == nil {
		t.Fatalf("no %s row; passes: %v", PassFrontendReuse, passNames(rows))
	}
	if ev.Extra["reused"] != 1 || ev.Extra["clones"] != 1 {
		t.Fatalf("reuse telemetry = %v, want reused=1 clones=1", ev.Extra)
	}
	if ev.After.Instrs == 0 {
		t.Fatal("reuse row's after-snapshot is empty; the cloned module was not measured")
	}
	if passRow(rows, PassFrontend) != nil {
		t.Fatal("shared compile must not re-run the frontend")
	}
}

// TestFrontendForksAreIndependent mutates one fork and checks a
// sibling fork compiled later is unaffected.
func TestFrontendForksAreIndependent(t *testing.T) {
	fe, err := ParseSource("shared.c", frontendSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The promote-pointer pipeline rewrites memory ops and grows the
	// register count; a pristine baseline fork afterwards must still
	// match a from-source baseline compile.
	if _, err := fe.Compile(Config{Analysis: PointsTo, Promote: true, PointerPromote: true}, nil); err != nil {
		t.Fatal(err)
	}
	shared, err := fe.Compile(Config{Analysis: ModRef}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CompileSource("shared.c", frontendSrc, Config{Analysis: ModRef})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ir.FormatModule(shared.Module), ir.FormatModule(full.Module); got != want {
		t.Fatalf("baseline fork polluted by sibling pipeline:\n--- from source\n%s\n--- fork\n%s", want, got)
	}
}
