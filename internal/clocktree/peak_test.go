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

// TestPeakCurrentAllocs: the sweep's buffers come from a pool, so once a
// call has filled it, repeated calls allocate nothing. AllocsPerRun runs
// at one P and reports an integer mean, so a refill after a GC emptied the
// pool does not show.
func TestPeakCurrentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	for _, name := range []string{"s15850", "s35932"} {
		tree, _, _ := benchTree(t, name)
		tm := tree.ComputeTiming(clocktree.NominalMode)
		allocs := testing.AllocsPerRun(20, func() { tree.PeakCurrent(tm) })
		if allocs > 0 {
			t.Errorf("%s (%d nodes): PeakCurrent allocates %v per call, want 0", name, tree.Len(), allocs)
		}
	}
}

// TestSkewAllocs: the skew reads the leaves where they are; a Monte Carlo
// sample computes it once, so any allocation here is paid per sample.
func TestSkewAllocs(t *testing.T) {
	tree, _, _ := benchTree(t, "s15850")
	tm := tree.ComputeTiming(clocktree.NominalMode)
	if allocs := testing.AllocsPerRun(20, func() { tm.Skew(tree) }); allocs != 0 {
		t.Errorf("Skew allocates %v per call, want 0", allocs)
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

// peakBitCases lists the trees TestPeakCurrentBitsPinned evaluates for
// one paper circuit: the circuit as synthesized, three σ = 0.05 draws,
// and the synthesized tree split into two voltage islands at 1.1 and
// 0.9 V.
func peakBitCases(t *testing.T, name string) []float64 {
	tree, spec, _ := benchTree(t, name)
	out := []float64{tree.PeakCurrent(tree.ComputeTiming(clocktree.NominalMode))}
	for seed := int64(1); seed <= 3; seed++ {
		inst := variation.Perturb(tree, 0.05, 0.4, rand.New(rand.NewSource(seed)))
		out = append(out, inst.PeakCurrent(inst.ComputeTiming(clocktree.NominalMode)))
	}
	islands := tree.Clone()
	d := bench.AssignDomains(islands, spec.DieW, spec.DieH, 2)
	mode := clocktree.Mode{Name: "split", Supplies: map[string]float64{d[0]: 1.1, d[1]: 0.9}}
	return append(out, islands.PeakCurrent(islands.ComputeTiming(mode)))
}

// TestPeakCurrentBitsPinned pins the exact bits PeakCurrent reports on
// the seven paper circuits. Any total order on (time, slope change) must
// give these bits, so a change to how the sweep orders its events that
// moves one of them changed the order, not just its speed.
func TestPeakCurrentBitsPinned(t *testing.T) {
	want := map[string][5]uint64{
		"s13207":    {0x40efdad8a4000820, 0x40e979aba3617b2f, 0x40e976d67a1084cb, 0x40edb64b8df151e3, 0x40e53806ae9e0b4b},
		"s15850":    {0x40d1a4e1137c36b5, 0x40c7f858c14aa318, 0x40c9c180addbac0f, 0x40c887d87b62e9b1, 0x40c955f9c36595ed},
		"s35932":    {0x4112187cca963314, 0x410804f45b03355a, 0x410bb6e8b8462d60, 0x410b2ce7c784a10d, 0x4106f2c58307f466},
		"s38417":    {0x41111edd7427c3f8, 0x4105165820023a93, 0x4107a1b4a45fc6e1, 0x4108aac0642823f8, 0x41054aaa141ae6eb},
		"s38584":    {0x410aa5b14f1a0c35, 0x4100f9f089de796b, 0x4100d4bbd7e84342, 0x4100cd9e694d1328, 0x410029922462ecaa},
		"ispd09f31": {0x41016284c603e876, 0x40f98d0e2d5cb504, 0x40fa1666d87dc255, 0x40fc2074547410aa, 0x40f82c59c4af3298},
		"ispd09f34": {0x40edabd9aab5a610, 0x40dc4e115a0df3bc, 0x40e1e71c737b1cb8, 0x40deb06abe66f454, 0x40e2b47021527325},
	}
	if len(want) != len(bench.Specs()) {
		t.Fatalf("%d circuits pinned, %d paper circuits", len(want), len(bench.Specs()))
	}
	for _, spec := range bench.Specs() {
		var bits [5]uint64
		for i, p := range peakBitCases(t, spec.Name) {
			bits[i] = math.Float64bits(p)
		}
		if w := want[spec.Name]; w != bits {
			t.Errorf("%s: PeakCurrent bits %#x, pinned %#x", spec.Name, bits, w)
		}
	}
}
