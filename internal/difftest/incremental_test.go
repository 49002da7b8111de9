package difftest

import (
	"testing"

	"regpromo/internal/driver"
)

// TestIncrementalSeedsClean runs the incremental oracle on a handful
// of generator seeds with the short matrix: every warm compile must be
// byte-identical to scratch, and the mutation must actually produce a
// different program (otherwise the oracle degrades to a replay check).
func TestIncrementalSeedsClean(t *testing.T) {
	matrix := driver.DifferentialConfigurations(true)
	for seed := int64(1); seed <= 6; seed++ {
		r := IncrementalSeed(seed, matrix)
		if r.Diverged() {
			t.Fatalf("seed %d: incremental compile diverged:\n%s", seed, r.Divergence)
		}
		if r.Mutated == r.Base {
			t.Fatalf("seed %d: no removable unit found, oracle degraded", seed)
		}
	}
}
