package regalloc

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"regpromo/internal/ir"
	"regpromo/internal/opt/promote"
	"regpromo/internal/testutil"
)

// suiteFuncs compiles every benchmark suite program, promoted so the
// coalescer sees promotion's copies, and returns its functions.
func suiteFuncs(t *testing.T) []*ir.Func {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "bench", "programs", "*.c"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no suite programs found: %v", err)
	}
	var fns []*ir.Func
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		m := testutil.Compile(t, string(src))
		promote.Run(m, promote.Options{})
		fns = append(fns, m.FuncsInOrder()...)
	}
	return fns
}

// referenceSimplify is the original quadratic picker: every step scans
// all remaining nodes in register order for the first one of degree
// below k, and otherwise for the cheapest spill candidate, over an
// adjacency it restricts to the used representatives itself.
func referenceSimplify(g *graph, repList []ir.Reg, k int, firstTemp ir.Reg) []ir.Reg {
	inReps := make(map[ir.Reg]bool, len(repList))
	for _, r := range repList {
		inReps[r] = true
	}
	noSpill := make(map[ir.Reg]bool)
	for r := firstTemp; int(r) < g.n; r++ {
		noSpill[g.find(r)] = true
	}
	adj := make(map[ir.Reg][]ir.Reg, len(repList))
	deg := make(map[ir.Reg]int, len(repList))
	for _, r := range repList {
		for n := ir.Reg(0); int(n) < g.n; n++ {
			if n != r && inReps[n] && g.adj[r] != nil && g.adj[r].has(n) {
				adj[r] = append(adj[r], n)
			}
		}
		deg[r] = len(adj[r])
	}
	removed := make(map[ir.Reg]bool, len(repList))
	var stack []ir.Reg
	for len(stack) < len(repList) {
		pick, pickSpill, pickLast := ir.RegInvalid, ir.RegInvalid, ir.RegInvalid
		bestCost, lastCost := 0.0, 0.0
		for _, r := range repList {
			if removed[r] {
				continue
			}
			if deg[r] < k {
				pick = r
				break
			}
			c := g.cost[r] / float64(deg[r]+1)
			if noSpill[r] {
				if pickLast == ir.RegInvalid || c < lastCost {
					pickLast, lastCost = r, c
				}
				continue
			}
			if pickSpill == ir.RegInvalid || c < bestCost {
				pickSpill, bestCost = r, c
			}
		}
		if pick == ir.RegInvalid {
			pick = pickSpill
		}
		if pick == ir.RegInvalid {
			pick = pickLast
		}
		removed[pick] = true
		stack = append(stack, pick)
		for _, n := range adj[pick] {
			if !removed[n] {
				deg[n]--
			}
		}
	}
	return stack
}

// TestDegreesAndSimplifyOrder checks the graph's incremental degrees
// and the worklist simplify against plain recomputation on every
// function of the suite: after build and coalesce each representative's
// deg equals its row's popcount, and the simplify order equals the
// quadratic reference picker's, at a roomy and a scarce register count.
func TestDegreesAndSimplifyOrder(t *testing.T) {
	for _, fn := range suiteFuncs(t) {
		weights := blockWeights(fn)
		for _, k := range []int{DefaultK, 6} {
			g := build(fn, weights)
			coalesce(g, k)
			for r := ir.Reg(0); int(r) < g.n; r++ {
				want := 0
				if g.adj[r] != nil {
					want = g.adj[r].count()
				}
				if g.find(r) != r && want != 0 {
					t.Errorf("%s K=%d: merged r%d keeps %d edges", fn.Name, k, r, want)
				}
				if g.deg[r] != want {
					t.Errorf("%s K=%d: deg[r%d] = %d, row popcount %d", fn.Name, k, r, g.deg[r], want)
				}
			}
			// Treat the upper half of the registers as spill
			// temporaries, so the no-spill tie-break is exercised.
			firstTemp := ir.Reg(fn.NumRegs / 2)
			reps := usedReps(g, fn)
			got := simplify(g, reps, k, firstTemp)
			want := referenceSimplify(g, reps, k, firstTemp)
			if !slices.Equal(got, want) {
				t.Errorf("%s K=%d: simplify order differs from the reference picker\n got %v\nwant %v", fn.Name, k, got, want)
			}
		}
	}
}

// TestTooFewRegistersForParams checks that a function whose parameters
// outnumber the registers fails before any allocation round with one
// error naming the function, its parameter count and K.
func TestTooFewRegistersForParams(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "bench", "programs", "fft.c"))
	if err != nil {
		t.Fatal(err)
	}
	m := testutil.Compile(t, string(src))
	promote.Run(m, promote.Options{})
	_, err = Run(m, Options{K: 4})
	var pe *ParamsError
	if !errors.As(err, &pe) {
		t.Fatalf("K=4: got %v, want a *ParamsError", err)
	}
	if *pe != (ParamsError{Func: "butterfly_pass", Params: 5, K: 4}) {
		t.Errorf("K=4: got %+v", *pe)
	}
	const want = "regalloc: butterfly_pass has 5 parameters, more than K=4 registers (parameters are all live at entry)"
	if err.Error() != want {
		t.Errorf("message %q, want %q", err, want)
	}
	if st, err := Func(m.Funcs["butterfly_pass"], Options{K: 5}, &m.Tags); err != nil || st.Rounds == 0 {
		t.Errorf("K=5 (one register per parameter): %+v, %v", st, err)
	}
}
