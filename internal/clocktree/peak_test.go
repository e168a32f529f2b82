package clocktree_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
	"wavemin/internal/multimode"
	"wavemin/internal/variation"
)

// peakRelTol bounds how far the slope-event sweep may sit from the
// waveform sum it replaced: the two add the same pulses in a different
// order, so they differ by rounding only.
const peakRelTol = 1e-12

// oraclePeak is the evaluator PeakCurrent replaced: the whole-tree
// waveform sum of TreeCurrents, read at its breakpoints, worst over both
// rails and both source edges.
func oraclePeak(tr *clocktree.Tree, tm *clocktree.Timing) float64 {
	var worst float64
	for _, e := range []cell.Edge{cell.Rising, cell.Falling} {
		idd, iss := tr.TreeCurrents(tm, e)
		if p, _ := idd.Peak(); p > worst {
			worst = p
		}
		if p, _ := iss.Peak(); p > worst {
			worst = p
		}
	}
	return worst
}

// checkPeak compares PeakCurrent with the oracle and returns their
// relative difference.
func checkPeak(t *testing.T, name string, tr *clocktree.Tree, tm *clocktree.Timing) float64 {
	t.Helper()
	got, want := tr.PeakCurrent(tm), oraclePeak(tr, tm)
	if want <= 0 {
		t.Fatalf("%s: oracle peak %g, want > 0", name, want)
	}
	rel := math.Abs(got-want) / want
	if !(rel <= peakRelTol) {
		t.Errorf("%s: PeakCurrent %.17g, waveform sum %.17g (rel %.3g > %g)", name, got, want, rel, peakRelTol)
	}
	return rel
}

// benchTree synthesizes a paper circuit the way wavemin.Benchmark does.
func benchTree(t testing.TB, name string) (*clocktree.Tree, bench.Spec, *cell.Library) {
	t.Helper()
	spec, ok := bench.SpecByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	lib := cell.DefaultLibrary()
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := spec.Synthesize(lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tree, spec, lib
}

// TestPeakCurrentMatchesWaveformSum: on all seven paper circuits — as
// synthesized, with every other leaf turned into an inverter, and
// perturbed at σ = 0.05 — the sweep equals the waveform-sum oracle.
func TestPeakCurrentMatchesWaveformSum(t *testing.T) {
	worst := 0.0
	for _, spec := range bench.Specs() {
		tree, _, lib := benchTree(t, spec.Name)
		nominal := clocktree.NominalMode
		worst = math.Max(worst, checkPeak(t, spec.Name+"/nominal", tree, tree.ComputeTiming(nominal)))

		mixed := tree.Clone()
		inv := lib.MustByName("INV_X8")
		for i, leaf := range mixed.Leaves() {
			if i%2 == 1 {
				mixed.SetCell(leaf, inv)
			}
		}
		worst = math.Max(worst, checkPeak(t, spec.Name+"/mixed", mixed, mixed.ComputeTiming(nominal)))

		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 3; i++ {
			inst := variation.Perturb(mixed, 0.05, 0.4, rng)
			worst = math.Max(worst, checkPeak(t, spec.Name+"/perturbed", inst, inst.ComputeTiming(nominal)))
		}
	}
	t.Logf("worst relative difference %.3g", worst)
}

// TestPeakCurrentMatchesWaveformSumMultiMode: ClkWaveMin-M results with
// ADB and ADI cells, timed in each of three power modes whose islands sit
// at 0.9 or 1.1 V.
func TestPeakCurrentMatchesWaveformSumMultiMode(t *testing.T) {
	worst := 0.0
	for _, name := range []string{"s15850", "ispd09f34"} {
		tree, spec, lib := benchTree(t, name)
		domains := bench.AssignDomains(tree, spec.DieW, spec.DieH, 4)
		modes := spec.Modes(domains, 3)
		sub, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
		if err != nil {
			t.Fatal(err)
		}
		cfg := multimode.Config{
			Library: sub, ADBCell: lib.MustByName("ADB_X8"), ADICell: lib.MustByName("ADI_X8"),
			Kappa: 12, Samples: 16, Epsilon: 0.05,
		}
		ctx := context.Background()
		res, err := multimode.Optimize(ctx, tree, modes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := multimode.ApplyResult(ctx, tree, modes, cfg.Kappa, res); err != nil {
			t.Fatal(err)
		}
		adjustable := 0
		for _, leaf := range tree.Leaves() {
			if tree.Node(leaf).Cell.Adjustable() {
				adjustable++
			}
		}
		if adjustable == 0 {
			t.Fatalf("%s: the solution holds no ADB or ADI; the case does not cover them", name)
		}
		for _, m := range modes {
			worst = math.Max(worst, checkPeak(t, name+"/"+m.Name, tree, tree.ComputeTiming(m)))
		}
	}
	t.Logf("worst relative difference %.3g", worst)
}

// TestPeakCurrentMatchesWaveformSumPaperCells: Table-pinned cells draw one
// triangle per rail at the characterized supplies and fall back to the
// analytic model between them; a tree of them is checked at 0.9 V, 1.1 V,
// an unpinned 1.0 V and a two-island mix.
func TestPeakCurrentMatchesWaveformSumPaperCells(t *testing.T) {
	lib := cell.PaperLibrary()
	names := []string{"BUF_X1", "BUF_X2", "INV_X1", "INV_X2"}
	tree := clocktree.New(lib.MustByName("BUF_X2"), 50, 50)
	for i, mid := range names {
		m := tree.AddChild(tree.Root(), lib.MustByName(mid), float64(20*i), 40, 0.05, 10)
		for j, leaf := range names {
			id := tree.AddChild(m, lib.MustByName(leaf), float64(20*i+5*j), 20, 0.02, 4+float64(j))
			tree.SetSinkCap(id, 3+float64(i+j))
		}
		if i >= 2 {
			tree.SetDomainSubtree(m, "island")
		}
	}
	for _, m := range []clocktree.Mode{
		{Name: "low", Supplies: map[string]float64{clocktree.DefaultDomain: 0.9, "island": 0.9}},
		{Name: "high", Supplies: map[string]float64{clocktree.DefaultDomain: 1.1, "island": 1.1}},
		{Name: "between", Supplies: map[string]float64{clocktree.DefaultDomain: 1.0, "island": 1.0}},
		{Name: "mixed", Supplies: map[string]float64{clocktree.DefaultDomain: 1.1, "island": 0.9}},
	} {
		checkPeak(t, m.Name, tree, tree.ComputeTiming(m))
	}
}

// TestPeakCurrentAllocs: the sweep allocates its one event slice per
// call, however large the tree.
func TestPeakCurrentAllocs(t *testing.T) {
	for _, name := range []string{"s15850", "s35932"} {
		tree, _, _ := benchTree(t, name)
		tm := tree.ComputeTiming(clocktree.NominalMode)
		allocs := testing.AllocsPerRun(20, func() { tree.PeakCurrent(tm) })
		if allocs > 4 {
			t.Errorf("%s (%d nodes): PeakCurrent allocates %v per call, want ≤ 4", name, tree.Len(), allocs)
		}
	}
}

// gridTree synthesizes a clock tree over n sinks scattered on a die sized
// for about the paper circuits' sink density.
func gridTree(t testing.TB, n int) *clocktree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	side := 20 * math.Sqrt(float64(n))
	sinks := make([]cts.Sink, n)
	for i := range sinks {
		sinks[i] = cts.Sink{X: rng.Float64() * side, Y: rng.Float64() * side, Cap: 4 + 8*rng.Float64()}
	}
	tree, err := cts.Synthesize(sinks, cell.DefaultLibrary(), cts.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestPeakCurrentScales times the sweep on a ~10k-leaf and a ~100k-leaf
// synthesized tree. The bounds are loose enough for a slow, drifting
// host and still fail a quadratic step: the old waveform sum took tens of
// seconds at 8k leaves.
func TestPeakCurrentScales(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("times two large trees; skipped under -short and -race")
	}
	best := func(tree *clocktree.Tree) time.Duration {
		tm := tree.ComputeTiming(clocktree.NominalMode)
		var fastest time.Duration
		for i := 0; i < 2; i++ {
			start := time.Now()
			if p := tree.PeakCurrent(tm); p <= 0 {
				t.Fatalf("peak %g on %d nodes", p, tree.Len())
			}
			if d := time.Since(start); i == 0 || d < fastest {
				fastest = d
			}
		}
		return fastest
	}
	small, large := gridTree(t, 10_000), gridTree(t, 100_000)
	ds, dl := best(small), best(large)
	t.Logf("%d nodes: %v; %d nodes: %v", small.Len(), ds, large.Len(), dl)
	if dl > 5*time.Second {
		t.Errorf("PeakCurrent on %d nodes took %v, want ≤ 5s", large.Len(), dl)
	}
	if dl > 25*ds {
		t.Errorf("PeakCurrent grew %.1f× from %d to %d nodes, want ≤ 25×", float64(dl)/float64(ds), small.Len(), large.Len())
	}
}
