package difftest

import (
	"fmt"
	"reflect"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/interp"
	"regpromo/internal/par"
	"regpromo/internal/testgen"
)

// These tests hold the flat-code engine to byte equality with the
// block-walking switch engine — counts, profiles (block execution
// counts and per-tag traffic), exit codes, outputs, and error text —
// across the generated fuzz corpus and the full benchmark suite. The
// switch engine is the oracle: any disagreement is a bug in the flat
// lowering or dispatch, never a tolerable difference.

// engineSeeds is how many consecutive testgen seeds the engine
// differential covers (matching the CI fuzz smoke range).
const engineSeeds = 200

// compareEngines executes one compilation on both engines with
// profiling enabled and reports any observable difference.
func compareEngines(label string, c *driver.Compilation, maxSteps int64) error {
	flat, ferr := c.Execute(interp.Options{MaxSteps: maxSteps, Profile: true, Engine: interp.EngineFlat})
	sw, serr := c.Execute(interp.Options{MaxSteps: maxSteps, Profile: true, Engine: interp.EngineSwitch})
	switch {
	case ferr != nil && serr != nil:
		if ferr.Error() != serr.Error() {
			return fmt.Errorf("%s: error divergence: flat %q, switch %q", label, ferr, serr)
		}
		return nil
	case ferr != nil || serr != nil:
		return fmt.Errorf("%s: one engine failed: flat err=%v, switch err=%v", label, ferr, serr)
	}
	if flat.Counts != sw.Counts {
		return fmt.Errorf("%s: counts diverge: flat %+v, switch %+v", label, flat.Counts, sw.Counts)
	}
	if flat.Exit != sw.Exit {
		return fmt.Errorf("%s: exit diverges: flat %d, switch %d", label, flat.Exit, sw.Exit)
	}
	if flat.Output != sw.Output {
		return fmt.Errorf("%s: output diverges: flat %q, switch %q", label, flat.Output, sw.Output)
	}
	if !reflect.DeepEqual(flat.Profile, sw.Profile) {
		return fmt.Errorf("%s: profiles diverge:\nflat:\n%s\nswitch:\n%s",
			label, flat.Profile.Format(10), sw.Profile.Format(10))
	}
	return nil
}

// TestEnginesAgreeOnSeeds runs the fuzz corpus through every
// differential configuration on both engines.
func TestEnginesAgreeOnSeeds(t *testing.T) {
	seeds := engineSeeds
	if testing.Short() {
		seeds = 25
	}
	matrix := driver.DifferentialConfigurations(testing.Short())
	_, err := par.ParallelMap(seeds, 0, func(i int) (struct{}, error) {
		seed := int64(i)
		fe, err := driver.ParseSource(fmt.Sprintf("seed%d.c", seed), testgen.Program(seed))
		if err != nil {
			return struct{}{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		for _, nc := range matrix {
			c, err := fe.Compile(nc.Config, nil)
			if err != nil {
				return struct{}{}, fmt.Errorf("seed %d/%s: %w", seed, nc.Name, err)
			}
			if err := compareEngines(fmt.Sprintf("seed %d/%s", seed, nc.Name), c, MaxSteps); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEnginesAgreeOnBenchSuite runs every benchmark program through
// the paper's four measurement configurations on both engines.
func TestEnginesAgreeOnBenchSuite(t *testing.T) {
	programs := bench.Suite()
	if testing.Short() {
		programs = programs[:4]
	}
	_, err := par.ParallelMap(len(programs), 0, func(i int) (struct{}, error) {
		p := programs[i]
		fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		for _, cfg := range driver.Configurations() {
			c, err := fe.Compile(cfg, nil)
			if err != nil {
				return struct{}{}, fmt.Errorf("%s: %w", p.Name, err)
			}
			label := fmt.Sprintf("%s/%s/promote=%v", p.Name, cfg.Analysis, cfg.Promote)
			if err := compareEngines(label, c, 1<<33); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
