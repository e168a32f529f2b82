package wavemin

import (
	"context"
	"math"
	"testing"

	"wavemin/internal/clocktree"
	"wavemin/internal/polarity"
)

// TestEndToEndSingleMode is the acceptance test for the paper's headline
// single-mode flow on a full benchmark: synthesize → optimize → verify
// every reported metric against the golden evaluator.
func TestEndToEndSingleMode(t *testing.T) {
	d, err := Benchmark("s13207")
	if err != nil {
		t.Fatal(err)
	}
	before, err := d.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before.WorstSkew > 10 {
		t.Fatalf("CTS delivered %g ps skew, want <10 (the paper's zero-skew input)", before.WorstSkew)
	}
	res, err := d.Optimize(context.Background(), Config{Kappa: 20, Samples: 64, MaxIntervals: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Headline: double-digit peak reduction on this circuit.
	if res.PeakReduction() < 10 {
		t.Fatalf("peak reduction %.1f %%, want ≥10", res.PeakReduction())
	}
	// Noise must improve along with the peak.
	if res.After.VDDNoise >= res.Before.VDDNoise || res.After.GndNoise >= res.Before.GndNoise {
		t.Fatalf("rail noise did not improve: VDD %g→%g, Gnd %g→%g",
			res.Before.VDDNoise, res.After.VDDNoise, res.Before.GndNoise, res.After.GndNoise)
	}
	// Skew bound held with Observation-4 drift slack.
	if res.After.WorstSkew > 22 {
		t.Fatalf("skew %g ps exceeds κ=20 (+slack)", res.After.WorstSkew)
	}
	// A real mix of polarities at leaf level.
	if res.NumInverters == 0 || res.NumBuffers == 0 {
		t.Fatalf("degenerate assignment: %d buffers / %d inverters", res.NumBuffers, res.NumInverters)
	}
	// The Result metrics must match an independent re-measurement.
	again, err := d.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(again.PeakCurrent-res.After.PeakCurrent) > 1e-6 {
		t.Fatal("reported After metrics disagree with re-measurement")
	}
}

// TestEndToEndMultiMode covers the full ClkWaveMin-M path: islands, modes,
// ADB insertion, ADI conversion, per-mode skew verification.
func TestEndToEndMultiMode(t *testing.T) {
	d, err := Benchmark("s35932")
	if err != nil {
		t.Fatal(err)
	}
	pd, err := d.PartitionVoltageIslands(8)
	if err != nil {
		t.Fatal(err)
	}
	modes := make([]Mode, 3)
	for i := range modes {
		sup := make(map[string]float64, len(pd))
		for j, dom := range pd {
			sup[dom] = 1.1
			if i > 0 && j%(i+1) == 0 {
				sup[dom] = 0.9
			}
		}
		modes[i] = Mode{Name: []string{"M1", "M2", "M3"}[i], Supplies: sup}
	}
	if err := d.SetModes(modes); err != nil {
		t.Fatal(err)
	}
	res, err := d.Optimize(context.Background(), Config{Kappa: 14, Samples: 16, EnableADI: true, MaxIntersections: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.After.WorstSkew > 16 {
		t.Fatalf("multi-mode skew %g exceeds κ=14 (+slack)", res.After.WorstSkew)
	}
	if res.After.PeakCurrent > res.Before.PeakCurrent {
		t.Fatalf("peak regressed %g → %g", res.Before.PeakCurrent, res.After.PeakCurrent)
	}
	// Every mode individually must hold the bound (not just the worst).
	for _, m := range d.Modes {
		if s := d.Tree.ComputeTiming(m).Skew(d.Tree); s > 16 {
			t.Fatalf("mode %s skew %g", m.Name, s)
		}
	}
}

// TestOptimizerEstimateRanksLikeGoldenNoise sanity-checks the model chain:
// across several assignments, the optimizer's waveform estimate must rank
// configurations the same way the independent power-grid simulation does
// (within one inversion of tolerance) — the property that makes optimizing
// the estimate meaningful.
func TestOptimizerEstimateRanksLikeGoldenNoise(t *testing.T) {
	d, err := Benchmark("s15850")
	if err != nil {
		t.Fatal(err)
	}
	lib := d.lib
	sizing, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := polarity.Config{Library: sizing, Kappa: 20, Samples: 32, Epsilon: 0.05, MaxIntervals: 4}
	// Three assignments of very different quality.
	allBuf := make(polarity.Assignment)
	for _, leaf := range d.Tree.Leaves() {
		allBuf[leaf] = sizing.MustByName("BUF_X16")
	}
	nieh, err := polarity.NiehBaseline(d.Tree, sizing, clocktree.NominalMode)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := polarity.Optimize(context.Background(), d.Tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ est, noise float64 }
	score := func(a polarity.Assignment) pair {
		est, err := polarity.EstimatePeak(d.Tree, cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		work := d.Tree.Clone()
		polarity.Apply(work, a)
		tm := work.ComputeTiming(clocktree.NominalMode)
		v, g, err := d.Grid.MeasureTreeNoise(context.Background(), work, tm)
		if err != nil {
			t.Fatal(err)
		}
		return pair{est: est, noise: math.Max(v, g)}
	}
	pAll, pNieh, pOpt := score(allBuf), score(nieh), score(opt.Assignment)
	// Estimate ordering: optimized < nieh < all-buffer.
	if !(pOpt.est <= pNieh.est && pNieh.est <= pAll.est) {
		t.Fatalf("estimate ordering broken: %g / %g / %g", pOpt.est, pNieh.est, pAll.est)
	}
	// Golden grid-noise ordering must agree on the extremes.
	if pOpt.noise >= pAll.noise {
		t.Fatalf("grid noise disagrees on extremes: opt %g vs all-buffer %g", pOpt.noise, pAll.noise)
	}
}
