package polarity

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/faultinject"
)

func nonLeafFixture(t *testing.T) (*clocktree.Tree, *cell.Library, Config) {
	tree, lib := clusterTree(t, 8)
	cfg := sizingConfig(lib, ClkWaveMin)
	cfg.Samples = 16
	cfg.MaxIntervals = 3
	return tree, lib, cfg
}

func TestNonLeafFlipsNeverWorsenGolden(t *testing.T) {
	tree, lib, cfg := nonLeafFixture(t)
	base, err := Optimize(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	work := tree.Clone()
	Apply(work, base.Assignment)
	basePeak := work.PeakCurrent(work.ComputeTiming(clocktree.NominalMode))

	res, err := OptimizeWithNonLeafFlips(context.Background(), tree, lib, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoldenPeak > basePeak+1e-6 {
		t.Fatalf("non-leaf extension worsened the peak: %g vs %g", res.GoldenPeak, basePeak)
	}
	if len(res.Flips) > 2 {
		t.Fatalf("flip budget exceeded: %d", len(res.Flips))
	}
}

func TestNonLeafFlipsApply(t *testing.T) {
	tree, lib, cfg := nonLeafFixture(t)
	res, err := OptimizeWithNonLeafFlips(context.Background(), tree, lib, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyNonLeaf(tree, lib, res); err != nil {
		t.Fatal(err)
	}
	// Applied tree must reproduce the reported golden peak.
	got := tree.PeakCurrent(tree.ComputeTiming(clocktree.NominalMode))
	if diff := got - res.GoldenPeak; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("applied peak %g != reported %g", got, res.GoldenPeak)
	}
	// Flipped internal nodes are inverters now.
	for _, id := range res.Flips {
		if !tree.Node(id).Cell.Inverting() {
			t.Fatalf("flip %d not applied", id)
		}
	}
	// Skew still respected (±drift).
	if s := tree.ComputeTiming(clocktree.NominalMode).Skew(tree); s > cfg.Kappa+2 {
		t.Fatalf("skew %g after non-leaf flips", s)
	}
}

func TestNonLeafZeroBudgetEqualsPlain(t *testing.T) {
	tree, lib, cfg := nonLeafFixture(t)
	res, err := OptimizeWithNonLeafFlips(context.Background(), tree, lib, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) != 0 {
		t.Fatal("zero budget must not flip")
	}
	if _, err := OptimizeWithNonLeafFlips(context.Background(), tree, lib, cfg, -1); err == nil {
		t.Fatal("negative budget should error")
	}
}

func TestInvertingTwin(t *testing.T) {
	lib := cell.DefaultLibrary()
	buf := lib.MustByName("BUF_X8")
	twin, err := invertingTwin(lib, buf)
	if err != nil {
		t.Fatal(err)
	}
	if twin.Name != "INV_X8" {
		t.Fatalf("twin = %s", twin.Name)
	}
	inv := lib.MustByName("INV_X4")
	same, err := invertingTwin(lib, inv)
	if err != nil || same != inv {
		t.Fatal("inverting cell should be its own twin")
	}
	odd := cell.MakeADB(8, 4, 3)
	odd2 := *odd
	odd2.Kind = cell.Buf
	odd2.StepPs, odd2.MaxSteps = 0, 0
	odd2.Drive = 3 // no INV_X3 in the library
	if _, err := invertingTwin(lib, &odd2); err == nil {
		t.Fatal("missing twin should error")
	}
}

// TestNonLeafFlipsCanceled cancels the context on the first zone solve
// after the base evaluation: the flip loop may treat a failed flip as
// infeasible only while the context is live, so the cancellation must
// surface as an error rather than as the unflipped result.
func TestNonLeafFlipsCanceled(t *testing.T) {
	tree, lib, cfg := nonLeafFixture(t)
	var calls atomic.Int64
	t.Cleanup(faultinject.Reset)
	faultinject.Set(faultinject.SitePolarityZone, func() { calls.Add(1) })
	if _, err := Optimize(context.Background(), tree, cfg); err != nil {
		t.Fatal(err)
	}
	base := calls.Swap(0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Set(faultinject.SitePolarityZone, func() {
		if calls.Add(1) == base+1 {
			cancel()
		}
	})
	res, err := OptimizeWithNonLeafFlips(ctx, tree, lib, cfg, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v with result %+v, want context.Canceled", err, res)
	}
	if calls.Load() <= base {
		t.Fatalf("cancellation hook never fired after the base evaluation (%d zone solves)", calls.Load())
	}
}
