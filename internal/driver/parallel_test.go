package driver_test

import (
	"fmt"
	"strings"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
)

// TestParallelMatchesSerial checks the parallel middle end's core
// contract: for every suite program under every differential
// configuration, the IL produced with Workers=0 (one worker per CPU)
// is byte-identical to the IL produced with Workers=1 (the serial
// pass-by-pass walk), and the two tracers' pass views agree on
// everything except wall time.
func TestParallelMatchesSerial(t *testing.T) {
	for _, p := range bench.Suite() {
		fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		for _, nc := range driver.DifferentialConfigurations(false) {
			t.Run(p.Name+"/"+nc.Name, func(t *testing.T) {
				serialCfg, parallelCfg := nc.Config, nc.Config
				serialCfg.Workers = 1
				// An explicit worker count forces the multi-worker
				// pool even on single-CPU hosts, where the default
				// (0, one worker per CPU) would degenerate to the
				// serial loop and test nothing.
				parallelCfg.Workers = 4

				// Span collection must never perturb the compile (in
				// particular it must not force the parallel middle
				// end onto its serial fallback).
				serialTr, parallelTr := obs.NewTracer(), obs.NewTracer()
				sc, err := fe.Compile(serialCfg, serialTr)
				if err != nil {
					t.Fatalf("serial compile: %v", err)
				}
				pc, err := fe.Compile(parallelCfg, parallelTr)
				if err != nil {
					t.Fatalf("parallel compile: %v", err)
				}

				sIL, pIL := ir.FormatModule(sc.Module), ir.FormatModule(pc.Module)
				if sIL != pIL {
					t.Fatalf("IL differs between serial and parallel compiles:\n--- serial ---\n%s\n--- parallel ---\n%s", sIL, pIL)
				}
				if sc.Promote.Counters() != pc.Promote.Counters() {
					t.Errorf("promote stats differ: serial %+v, parallel %+v", sc.Promote, pc.Promote)
				}
				if sc.Alloc != pc.Alloc {
					t.Errorf("alloc stats differ: serial %+v, parallel %+v", sc.Alloc, pc.Alloc)
				}

				serialRows, parallelRows := serialTr.Passes(), parallelTr.Passes()
				if len(serialRows) == 0 {
					t.Fatal("the serial tracer recorded no pass rows")
				}
				if len(serialRows) != len(parallelRows) {
					t.Fatalf("row counts differ: serial %d, parallel %d", len(serialRows), len(parallelRows))
				}
				for i, se := range serialRows {
					pe := parallelRows[i]
					if se.Name != pe.Name || se.Index != pe.Index {
						t.Errorf("event %d: serial %s/%d, parallel %s/%d", i, se.Name, se.Index, pe.Name, pe.Index)
					}
					if se.Before != pe.Before {
						t.Errorf("%s: before snapshots differ: serial %+v, parallel %+v", se.Name, se.Before, pe.Before)
					}
					if se.After != pe.After {
						t.Errorf("%s: after snapshots differ: serial %+v, parallel %+v", se.Name, se.After, pe.After)
					}
					// The front-end rows count cumulative clone
					// reuse on the shared Frontend, which moves
					// between the two compiles by construction;
					// only the middle-end extras must agree.
					if strings.HasPrefix(se.Name, driver.PassFrontend) {
						continue
					}
					if fmt.Sprint(se.Extra) != fmt.Sprint(pe.Extra) {
						t.Errorf("%s: extras differ: serial %v, parallel %v", se.Name, se.Extra, pe.Extra)
					}
				}
			})
		}
	}
}

// TestDumpPassFallsBackToSerial checks that a tracer requesting IL
// dumps still gets one dump per pass with the parallel middle end
// enabled (the driver falls back to the serial walk, which is the
// only execution that materializes the module at each pass boundary),
// and that the serial walk runs every function on one worker.
func TestDumpPassFallsBackToSerial(t *testing.T) {
	p := bench.Suite()[0]
	fe, err := driver.ParseSource(p.Name+".c", bench.Source(p))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	tr.DumpPass = obs.DumpAll
	cfg := driver.Config{Analysis: driver.PointsTo, Promote: true, Workers: 4}
	if _, err := fe.Compile(cfg, tr); err != nil {
		t.Fatal(err)
	}
	rows := tr.Passes()
	if len(rows) == 0 {
		t.Fatal("no rows recorded")
	}
	for _, ev := range rows {
		if ev.IRDump == "" {
			t.Errorf("pass %s: missing IL dump", ev.Name)
		}
	}
	for _, sp := range tr.Spans() {
		if sp.TID > 1 {
			t.Fatalf("span %s/%s on tid %d: the serial walk uses one worker", sp.Cat, sp.Name, sp.TID)
		}
	}
}
