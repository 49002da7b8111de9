package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"regpromo/internal/driver"
	"regpromo/internal/testgen"
)

// TestDiffSeedAgreesOnMain: a handful of seeds through the full
// matrix; any divergence is a miscompilation in the tree.
func TestDiffSeedAgreesOnMain(t *testing.T) {
	matrix := driver.DifferentialConfigurations(false)
	for seed := int64(1); seed <= 5; seed++ {
		r := DiffSeed(seed, matrix, 0)
		if d := r.Divergence(); d != "" {
			t.Errorf("seed %d diverges:\n%s\n%s", seed, d, r.Source)
		}
	}
}

// TestFuzzCleanOnMain drives the whole Fuzz loop (parallel, short
// matrix) and expects a clean report.
func TestFuzzCleanOnMain(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	rep, err := Fuzz(FuzzOptions{Start: 1000, Seeds: seeds, Parallel: 4, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("fuzzing found %d divergences: %+v", len(rep.Failures), rep.Failures)
	}
}

// unitText recovers the text of one removable unit by rendering the
// program with only that unit kept and subtracting the never-pruned
// scaffolding around it.
func unitText(seed int64, u int) string {
	with := testgen.ProgramKeep(seed, func(i int) bool { return i == u })
	without := testgen.ProgramKeep(seed, func(i int) bool { return false })
	lo := 0
	for lo < len(without) && lo < len(with) && with[lo] == without[lo] {
		lo++
	}
	hi := 0
	for hi < len(without)-lo && hi < len(with)-lo && with[len(with)-1-hi] == without[len(without)-1-hi] {
		hi++
	}
	return with[lo : len(with)-hi]
}

// lastMainUnit returns the index and text of the seed's final
// main-body statement — a unit that survives on its own (units inside
// helper functions disappear when the helper itself is pruned, so
// they make poor reduction targets for this test).
func lastMainUnit(t *testing.T, seed int64) (int, string) {
	t.Helper()
	u := testgen.Units(seed) - 1
	text := unitText(seed, u)
	if text == "" {
		t.Fatalf("seed %d: unit %d has no text", seed, u)
	}
	return u, text
}

// TestReduceShrinksToMarker: with an oracle that "fails" whenever a
// marker statement is present, the reducer must strip essentially
// everything else. Each seeded fixture must shrink to at most two
// kept units (the marker plus, at worst, one unremovable companion).
func TestReduceShrinksToMarker(t *testing.T) {
	for _, seed := range []int64{3, 42, 777, 90210} {
		_, marker := lastMainUnit(t, seed)
		checks := 0
		reduced, kept := Reduce(seed, func(src string) bool {
			checks++
			return strings.Contains(src, marker)
		})
		if !strings.Contains(reduced, marker) {
			t.Errorf("seed %d: reduction lost the marker", seed)
		}
		if kept > 2 {
			t.Errorf("seed %d: reduced to %d units, want <= 2 (of %d)\n%s",
				seed, kept, testgen.Units(seed), reduced)
		}
		if full := testgen.Program(seed); len(reduced) >= len(full) {
			t.Errorf("seed %d: reduced program (%d bytes) not smaller than original (%d)", seed, len(reduced), len(full))
		}
		if checks == 0 {
			t.Errorf("seed %d: oracle never consulted", seed)
		}
	}
}

// TestReduceIrreproducible: when the oracle rejects even the full
// program, Reduce must hand it back untouched.
func TestReduceIrreproducible(t *testing.T) {
	seed := int64(11)
	src, kept := Reduce(seed, func(string) bool { return false })
	if src != testgen.Program(seed) || kept != testgen.Units(seed) {
		t.Fatal("irreproducible failure should return the full program")
	}
}

// TestReducedCandidatesStayWellFormed: every candidate the reducer
// proposes against a real differential oracle must at minimum keep
// the reference configuration compiling and running — pruning only
// removes whole generated units, never scaffolding.
func TestReducedCandidatesStayWellFormed(t *testing.T) {
	ref := driver.DifferentialConfigurations(true)[:1]
	seed := int64(1234)
	_, marker := lastMainUnit(t, seed)
	probes := 0
	Reduce(seed, func(src string) bool {
		probes++
		r := DiffSource("cand.c", src, ref, 0)
		// Compile errors are legitimate rejected trials (e.g. a
		// pruned helper that is still called); runtime faults are
		// not — pruning whole units must never corrupt the program.
		if err := r.Execs[0].Err; err != nil && strings.Contains(err.Error(), "execute:") {
			t.Fatalf("candidate faults at runtime: %v\n%s", err, src)
		}
		return strings.Contains(src, marker)
	})
	if probes < 3 {
		t.Fatalf("reducer probed only %d candidates, expected a real search", probes)
	}
}

// TestWriteArtifacts archives (non-divergent) results under several
// oracle sets and checks the corpus layout, and that the repro
// command's -oracles list parses back to the run's set.
func TestWriteArtifacts(t *testing.T) {
	matrix := driver.DifferentialConfigurations(true)
	for _, oracles := range []Oracles{0, Sanitize, Switch | Certify | Incremental} {
		r := DiffSeed(7, matrix, oracles)
		want := []string{"prog.c", "reduced.c", "repro.txt"}
		for _, nc := range matrix {
			want = append(want, "il-"+nc.Name+".txt")
		}
		if r.Incremental != nil {
			// Plant an incremental finding: its artifacts join the
			// seed directory.
			r.Incremental.Divergence = "baseline/grow: planted\n"
			r.Incremental.WarmIL, r.Incremental.ScratchIL = "warm\n", "scratch\n"
			want = append(want, "base.c", "mutated.c", "il-warm.txt", "il-scratch.txt")
		}
		sub, err := WriteArtifacts(t.TempDir(), r, r.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range want {
			data, err := os.ReadFile(filepath.Join(sub, name))
			if err != nil {
				t.Fatalf("%v: missing artifact %s: %v", oracles, name, err)
			}
			if len(data) == 0 {
				t.Errorf("%v: artifact %s is empty", oracles, name)
			}
		}
		repro, _ := os.ReadFile(filepath.Join(sub, "repro.txt"))
		const cmd = "go run ./cmd/rpfuzz -start 7 -seeds 1"
		_, line, ok := strings.Cut(string(repro), cmd)
		if !ok {
			t.Fatalf("%v: repro.txt lacks the repro command:\n%s", oracles, repro)
		}
		line, _, _ = strings.Cut(line, "\n")
		var got Oracles
		if list, ok := strings.CutPrefix(line, " -oracles "); ok {
			if got, err = ParseOracles(list); err != nil {
				t.Fatalf("%v: repro -oracles %q: %v", oracles, list, err)
			}
		} else if line != "" {
			t.Fatalf("%v: unexpected repro flags %q", oracles, line)
		}
		if got != oracles {
			t.Errorf("repro command runs oracles %v, want %v", got, oracles)
		}
	}
}

// TestFuzzOracles drives the Fuzz loop once per oracle on a clean
// seed range: each run must report no divergence, account every seed,
// and show a non-zero check tally for its oracle (an oracle that never
// ran would pass vacuously).
func TestFuzzOracles(t *testing.T) {
	for _, c := range []struct {
		name  string
		start int64
		seeds int64
	}{
		{"switch", 1, 10},
		// Each (seed, config) pair is a full toolchain invocation —
		// the broad sweep is rpfuzz's job.
		{"native", 1, 3},
		{"sanitize", 500, 10},
		{"certify", 600, 10},
		{"incremental", 1, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "native" && testing.Short() {
				t.Skip("native builds are toolchain invocations; skipped in -short")
			}
			oracle, err := ParseOracles(c.name)
			if err != nil {
				t.Fatal(err)
			}
			var seen atomic.Int64
			report, err := Fuzz(FuzzOptions{
				Start: c.start, Seeds: c.seeds, Short: true, Oracles: oracle,
				Reduce: true, CorpusDir: t.TempDir(),
				Progress: func(int64, bool, Tally) { seen.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Failures) != 0 {
				t.Fatalf("%s fuzz found divergences:\n%s", c.name, report.Failures[0].Divergence)
			}
			if seen.Load() != c.seeds || report.Seeds != c.seeds {
				t.Fatalf("progress saw %d seeds, report says %d, want %d", seen.Load(), report.Seeds, c.seeds)
			}
			checks := int64(0)
			for b := range oracleNames {
				if oracle&(1<<b) != 0 {
					checks = report.Checks[b]
				} else if report.Checks[b] != 0 {
					t.Errorf("oracle %s ran %d checks outside the set", oracleNames[b], report.Checks[b])
				}
			}
			if checks == 0 {
				t.Fatalf("%s oracle made no checks: %s", c.name, report.Tally)
			}
		})
	}
}

// TestParseOracles is the table over every -oracles spelling: each
// name, "all", duplicates, the empty list, and unknown names with the
// canonical [oracle] diagnostic.
func TestParseOracles(t *testing.T) {
	const want = `(want switch, native, sanitize, certify, incremental, or all)`
	cases := []struct {
		spec    string
		want    Oracles
		wantErr string
	}{
		{spec: "", want: 0},
		{spec: "switch", want: Switch},
		{spec: "native", want: Native},
		{spec: "sanitize", want: Sanitize},
		{spec: "certify", want: Certify},
		{spec: "incremental", want: Incremental},
		{spec: "all", want: AllOracles},
		{spec: "sanitize,switch", want: Switch | Sanitize},
		{spec: " certify , native ", want: Native | Certify},
		// Duplicates and overlaps with "all" collapse.
		{spec: "sanitize,sanitize", want: Sanitize},
		{spec: "all,native", want: AllOracles},
		// Flat is the primary engine, not an oracle.
		{spec: "flat", wantErr: `[oracle] unknown oracle "flat" ` + want},
		{spec: "bogus", wantErr: `[oracle] unknown oracle "bogus" ` + want},
		{spec: "switch,bogus", wantErr: `[oracle] unknown oracle "bogus" ` + want},
		{spec: "switch,", wantErr: `[oracle] unknown oracle "" ` + want},
		{spec: "Sanitize", wantErr: `[oracle] unknown oracle "Sanitize" ` + want},
	}
	for _, c := range cases {
		got, err := ParseOracles(c.spec)
		if c.wantErr != "" {
			if err == nil {
				t.Errorf("ParseOracles(%q) = %v, want error", c.spec, got)
			} else if err.Error() != c.wantErr {
				t.Errorf("ParseOracles(%q) error = %q, want %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseOracles(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseOracles(%q) = %v, want %v", c.spec, got, c.want)
		}
		if back, err := ParseOracles(got.String()); err != nil || back != got {
			t.Errorf("ParseOracles(%q.String()) = %v, %v; want %v", got, back, err, got)
		}
	}
}
