package driver_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/obs"
)

// goldenPassesPath holds one "<case> <sha256>" line per compile pinned
// by TestPassViewGolden.
const goldenPassesPath = "testdata/passes_golden.txt"

// passRows compiles src under cfg and returns its per-pass rows.
func passRows(name, src string, cfg driver.Config) ([]obs.PassEvent, error) {
	tr := obs.NewTracer()
	if _, err := driver.Compile(name, src, cfg, tr); err != nil {
		return nil, err
	}
	return tr.Passes(), nil
}

// passDigest is the SHA-256 of the rows' JSON with wall time zeroed:
// pass names and indices, before/after snapshots and extras.
func passDigest(rows []obs.PassEvent, err error) string {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
	} else {
		for i := range rows {
			rows[i].DurationNS = 0
		}
		raw, _ := json.Marshal(rows)
		h.Write(raw)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPassViewGolden pins the per-pass rows that rpcc -json and
// -trace print, for every suite program under the paper's four
// configurations, through the serial walk (Workers 1) and the
// parallel middle end (Workers 4). A change to how passes are
// recorded must leave these digests alone; a change that means to
// move a pass's snapshot or extras regenerates
// testdata/passes_golden.txt from the table this test logs on failure.
func TestPassViewGolden(t *testing.T) {
	names := []string{"modref", "modref+promote", "pointer", "pointer+promote"}
	var got []string
	for _, p := range bench.Suite() {
		for ci, cfg := range driver.Configurations() {
			for _, w := range []int{1, 4} {
				cfg.Workers = w
				rows, err := passRows(p.Name+".c", bench.Source(p), cfg)
				got = append(got, fmt.Sprintf("%s/%s/w%d %s", p.Name, names[ci], w, passDigest(rows, err)))
			}
		}
	}
	checkGolden(t, goldenPassesPath, got)
}
