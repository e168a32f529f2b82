package polarity

import (
	"context"
	"math"
	"testing"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

// clusterTree builds a balanced tree with n co-located leaves (one zone),
// all initially BUF_X16 — a worst-case coincident-spike configuration.
func clusterTree(t testing.TB, n int) (*clocktree.Tree, *cell.Library) {
	lib := cell.DefaultLibrary()
	sinks := make([]cts.Sink, n)
	for i := range sinks {
		sinks[i] = cts.Sink{X: 20 + float64(i%4), Y: 20 + float64(i/4), Cap: 8}
	}
	tree, err := cts.Synthesize(sinks, lib, cts.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	big := lib.MustByName("BUF_X16")
	for _, leaf := range tree.Leaves() {
		tree.SetCell(leaf, big)
	}
	return tree, lib
}

func sizingConfig(lib *cell.Library, algo Algorithm) Config {
	sub, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		panic(err)
	}
	return Config{Library: sub, Kappa: 20, Samples: 32, Epsilon: 0.01, Algorithm: algo}
}

func TestOptimizeReducesGoldenPeak(t *testing.T) {
	tree, lib := clusterTree(t, 8)
	tmBefore := tree.ComputeTiming(clocktree.NominalMode)
	before := tree.PeakCurrent(tmBefore)

	res, err := Optimize(context.Background(), tree, sizingConfig(lib, ClkWaveMin))
	if err != nil {
		t.Fatal(err)
	}
	work := tree.Clone()
	Apply(work, res.Assignment)
	tmAfter := work.ComputeTiming(clocktree.NominalMode)
	after := work.PeakCurrent(tmAfter)
	if after >= before {
		t.Fatalf("golden peak did not improve: %g → %g", before, after)
	}
	// For 8 coincident identical sinks a near-half split should cut the
	// leaf contribution dramatically; demand at least 20 % total.
	if after > 0.8*before {
		t.Fatalf("improvement too small: %g → %g", before, after)
	}
}

func TestOptimizeRespectsSkewAfterApply(t *testing.T) {
	tree, lib := clusterTree(t, 8)
	cfg := sizingConfig(lib, ClkWaveMin)
	res, err := Optimize(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Apply(tree, res.Assignment)
	tm := tree.ComputeTiming(clocktree.NominalMode)
	// Candidate-model skew is exact up to parent-load second-order effects
	// (Observation 4); allow 2 ps of slack.
	if s := tm.Skew(tree); s > cfg.Kappa+2 {
		t.Fatalf("realized skew %g vs κ=%g", s, cfg.Kappa)
	}
}

func TestWaveMinBeatsOrMatchesFastEstimate(t *testing.T) {
	tree, lib := clusterTree(t, 8)
	exact, err := Optimize(context.Background(), tree, sizingConfig(lib, ClkWaveMin))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Optimize(context.Background(), tree, sizingConfig(lib, ClkWaveMinF))
	if err != nil {
		t.Fatal(err)
	}
	if exact.PeakEstimate > fast.PeakEstimate*(1.01)+1e-9 {
		t.Fatalf("ClkWaveMin estimate %g worse than ClkWaveMin-f %g",
			exact.PeakEstimate, fast.PeakEstimate)
	}
}

func TestPeakMinBaselineProducesValidAssignment(t *testing.T) {
	tree, lib := clusterTree(t, 8)
	cfg := sizingConfig(lib, ClkPeakMinBaseline)
	res, err := Optimize(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(tree); err != nil {
		t.Fatal(err)
	}
	Apply(tree, res.Assignment)
	tm := tree.ComputeTiming(clocktree.NominalMode)
	if s := tm.Skew(tree); s > cfg.Kappa+2 {
		t.Fatalf("PeakMin skew %g vs κ=%g", s, cfg.Kappa)
	}
	// The baseline must also mix polarities here (its objective forces a
	// split too).
	counts := CountKinds(res.Assignment)
	if counts[cell.Inv] == 0 {
		t.Fatalf("PeakMin produced no inverters: %v", counts)
	}
}

func TestWaveMinGoldenNotWorseThanPeakMin(t *testing.T) {
	// The headline claim, on a single-zone instance where the optimizer's
	// model is close to the golden evaluator.
	tree, lib := clusterTree(t, 10)
	wm, err := Optimize(context.Background(), tree, sizingConfig(lib, ClkWaveMin))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Optimize(context.Background(), tree, sizingConfig(lib, ClkPeakMinBaseline))
	if err != nil {
		t.Fatal(err)
	}
	evalGolden := func(a Assignment) float64 {
		work := tree.Clone()
		Apply(work, a)
		tm := work.ComputeTiming(clocktree.NominalMode)
		return work.PeakCurrent(tm)
	}
	gw, gp := evalGolden(wm.Assignment), evalGolden(pm.Assignment)
	if gw > gp*1.10 {
		t.Fatalf("WaveMin golden peak %g far worse than PeakMin %g", gw, gp)
	}
}

func TestMoreSamplesNoWorseEstimate(t *testing.T) {
	// Table VI's trend: more sampling points → better (or equal) peak.
	// Estimates across |S| aren't directly comparable, so compare on the
	// golden evaluator.
	tree, lib := clusterTree(t, 8)
	golden := func(samples int) float64 {
		cfg := sizingConfig(lib, ClkWaveMin)
		cfg.Samples = samples
		res, err := Optimize(context.Background(), tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		work := tree.Clone()
		Apply(work, res.Assignment)
		tm := work.ComputeTiming(clocktree.NominalMode)
		return work.PeakCurrent(tm)
	}
	coarse := golden(4)
	fine := golden(64)
	if fine > coarse*1.10 {
		t.Fatalf("more samples should not hurt much: |S|=4 → %g, |S|=64 → %g", coarse, fine)
	}
}

func TestOptimizeConfigValidation(t *testing.T) {
	tree, lib := clusterTree(t, 4)
	if _, err := Optimize(context.Background(), tree, Config{Library: nil, Kappa: 10}); err == nil {
		t.Error("nil library should error")
	}
	if _, err := Optimize(context.Background(), tree, Config{Library: lib, Kappa: 0}); err == nil {
		t.Error("zero kappa should error")
	}
}

func TestOptimizeMaxIntervals(t *testing.T) {
	tree, lib := clusterTree(t, 6)
	cfg := sizingConfig(lib, ClkWaveMinF)
	cfg.MaxIntervals = 1
	res, err := Optimize(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntervalsTried != 1 {
		t.Fatalf("tried %d intervals, want 1", res.IntervalsTried)
	}
}

func TestEstimatePeakTracksGoldenDirection(t *testing.T) {
	tree, lib := clusterTree(t, 8)
	cfg := sizingConfig(lib, ClkWaveMin)
	res, err := Optimize(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer's estimate of its own assignment should be below the
	// estimate of the all-BUF_X16 initial assignment.
	init := InitialAssignment(tree)
	eInit, err := EstimatePeak(tree, cfg, init)
	if err != nil {
		t.Fatal(err)
	}
	eOpt, err := EstimatePeak(tree, cfg, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if eOpt >= eInit {
		t.Fatalf("estimate did not improve: %g → %g", eInit, eOpt)
	}
}

func TestZonePartition(t *testing.T) {
	lib := cell.DefaultLibrary()
	sinks := []cts.Sink{
		{X: 10, Y: 10, Cap: 8}, {X: 12, Y: 14, Cap: 8}, // zone (0,0)
		{X: 80, Y: 10, Cap: 8}, // zone (1,0)
		{X: 10, Y: 80, Cap: 8}, // zone (0,1)
	}
	tree, err := cts.Synthesize(sinks, lib, cts.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	zones := PartitionZones(tree, 50)
	leafZones := LeafZones(zones)
	totalLeaves := 0
	for _, z := range leafZones {
		totalLeaves += len(z.Leaves)
	}
	if totalLeaves != 4 {
		t.Fatalf("zones cover %d leaves, want 4", totalLeaves)
	}
	if len(leafZones) < 3 {
		t.Fatalf("expected ≥3 leaf zones, got %d", len(leafZones))
	}
	// Default size fallback.
	if got := PartitionZones(tree, 0); len(got) == 0 {
		t.Fatal("default zone size failed")
	}
}

func TestIntervalDegreeOfFreedom(t *testing.T) {
	iv := Interval{Feasible: [][]int{{0, 1, 2}, {1}, {0, 3}}}
	if dof := iv.DegreeOfFreedom(); dof != 6 {
		t.Fatalf("DoF = %d, want 6", dof)
	}
}

func TestAssignmentHelpers(t *testing.T) {
	tree, lib := clusterTree(t, 4)
	a := InitialAssignment(tree)
	if err := a.Validate(tree); err != nil {
		t.Fatal(err)
	}
	counts := CountKinds(a)
	if counts[cell.Buf] != 4 {
		t.Fatalf("counts = %v", counts)
	}
	delete(a, tree.Leaves()[0])
	if err := a.Validate(tree); err == nil {
		t.Fatal("partial assignment should fail validation")
	}
	_ = lib
}

func TestCandidateWaveGroups(t *testing.T) {
	tree, lib := clusterTree(t, 4)
	cs := BuildCandidates(tree, lib, clocktree.NominalMode)
	leaf := tree.Leaves()[0]
	for _, c := range cs.ByLeaf[leaf] {
		// A non-inverting candidate's VDD-rise peak must exceed its
		// VDD-fall peak; inverting mirrored.
		pr, _ := c.Waves[VDDRise].Peak()
		pf, _ := c.Waves[VDDFall].Peak()
		if c.Cell.Inverting() && pr >= pf {
			t.Errorf("%s: inverting candidate P+ %g ≥ P- %g", c.Cell.Name, pr, pf)
		}
		if !c.Cell.Inverting() && pf >= pr {
			t.Errorf("%s: buffer candidate P- %g ≥ P+ %g", c.Cell.Name, pf, pr)
		}
	}
}

func TestCandidateArrivalModel(t *testing.T) {
	// Each candidate's AT must equal the initial input arrival plus the
	// exact self-load shift (its input cap re-loading wire and parent)
	// plus its own cell delay.
	tree, lib := clusterTree(t, 4)
	mode := clocktree.NominalMode
	tm := tree.ComputeTiming(mode)
	cs := BuildCandidates(tree, lib, mode)
	for _, leaf := range tree.Leaves() {
		for _, c := range cs.ByLeaf[leaf] {
			want := tm.ATIn[leaf] + selfLoadShift(tree, tm, mode, leaf, c.Cell) +
				c.Cell.Delay(tm.Load[leaf], mode.VDDOf(tree.Node(leaf).Domain))
			if math.Abs(c.AT-want) > 1e-9 {
				t.Fatalf("leaf %d cell %s: AT %g, want %g", leaf, c.Cell.Name, c.AT, want)
			}
		}
	}
	// The currently-assigned cell's candidate must reproduce the timing
	// engine's arrival exactly (zero self-shift).
	for _, leaf := range tree.Leaves() {
		cur := tree.Node(leaf).Cell
		for _, c := range cs.ByLeaf[leaf] {
			if c.Cell == cur && math.Abs(c.AT-tm.ATOut[leaf]) > 1e-9 {
				t.Fatalf("leaf %d: current-cell candidate AT %g != timing %g", leaf, c.AT, tm.ATOut[leaf])
			}
		}
	}
}
