package driver_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/regalloc"
	"regpromo/internal/testgen"
)

// goldenILPath holds one "<case> <sha256>" line per compile pinned by
// TestILIdentityGolden.
const goldenILPath = "testdata/il_golden.txt"

// ilDigest is the SHA-256 of a compile's printed IL followed by its
// allocation statistics, or of the error text when the compile fails.
func ilDigest(c *driver.Compilation, err error) string {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
	} else {
		h.Write([]byte(ir.FormatModule(c.Module)))
		fmt.Fprintf(h, "alloc: %+v\n", c.Alloc)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenILCases compiles every pinned case and returns its digest
// lines in a fixed order.
func goldenILCases(t *testing.T) []string {
	pointerK := func(k int) driver.Config {
		return driver.Config{Analysis: driver.PointsTo, Promote: true, PointerPromote: true, K: k}
	}
	var lines []string
	add := func(name string, fe *driver.Frontend, cfg driver.Config) {
		c, err := fe.Compile(cfg, nil)
		lines = append(lines, name+" "+ilDigest(c, err))
	}
	for _, p := range bench.Suite() {
		fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		for _, nc := range driver.DifferentialConfigurations(false) {
			add(p.Name+"/"+nc.Name, fe, nc.Config)
		}
		add(p.Name+"/promote-pointer-k8", fe, pointerK(8))
		add(p.Name+"/promote-pointer-k16", fe, pointerK(16))
	}
	src := testgen.Scale(testgen.ScaleOptions{Seed: 7, Funcs: 60, Edit: -1})
	fe, err := driver.ParseSource("scale.c", src)
	if err != nil {
		t.Fatalf("scale: parse: %v", err)
	}
	for _, nc := range driver.DifferentialConfigurations(true) {
		add("scale60/"+nc.Name, fe, nc.Config)
	}
	return lines
}

// TestILIdentityGolden pins the exact output of the compile pipeline:
// the printed IL and the allocator statistics of every suite program
// under every differential configuration, of pointer promotion at
// K=8 and K=16, and of a generated 60-function module. Dynamic counts
// alone would not notice a change in block numbering, register
// colouring or spill placement; these digests do. A change that is
// meant to alter the output regenerates testdata/il_golden.txt from
// the table this test logs on failure.
func TestILIdentityGolden(t *testing.T) {
	checkGolden(t, goldenILPath, goldenILCases(t))
}

// checkGolden compares "<case> <sha256>" lines against the digest file
// at path and logs the full current table when any case differs.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		t.Fatalf("read golden digests: %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	wantBy := make(map[string]string, len(want))
	for _, l := range want {
		name, sum, _ := strings.Cut(l, " ")
		wantBy[name] = sum
	}
	bad := 0
	for _, l := range got {
		name, sum, _ := strings.Cut(l, " ")
		if w, ok := wantBy[name]; !ok {
			t.Errorf("%s: no golden digest", name)
			bad++
		} else if w != sum {
			t.Errorf("%s: digest %s, want %s", name, sum, w)
			bad++
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d cases compiled, %d golden digests", len(got), len(want))
		bad++
	}
	if bad > 0 {
		t.Logf("current digests:\n%s", strings.Join(got, "\n"))
	}
}

// TestParamsOverKIsTyped compiles a suite program whose five-parameter
// function cannot fit in four registers: the compile must fail at once
// with the allocator's typed error, through the parallel middle end
// as well as the serial one.
func TestParamsOverKIsTyped(t *testing.T) {
	var fft bench.Program
	for _, p := range bench.Suite() {
		if p.Name == "fft" {
			fft = p
		}
	}
	for _, workers := range []int{1, 2} {
		cfg := driver.Config{Analysis: driver.PointsTo, Promote: true, PointerPromote: true, K: 4, Workers: workers}
		_, err := driver.CompileSource("fft.c", bench.Source(fft), cfg)
		var pe *regalloc.ParamsError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want a *regalloc.ParamsError", workers, err)
		}
		if *pe != (regalloc.ParamsError{Func: "butterfly_pass", Params: 5, K: 4}) {
			t.Errorf("workers=%d: got %+v", workers, *pe)
		}
	}
}
