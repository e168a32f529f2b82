package wavemin

import (
	"context"
	"math"
	"strings"
	"testing"
)

func gridSinks(n int) []Sink {
	sinks := make([]Sink, 0, n)
	for i := 0; i < n; i++ {
		sinks = append(sinks, Sink{
			X:   float64(15 + (i%4)*10),
			Y:   float64(15 + (i/4)*10),
			Cap: 8,
		})
	}
	return sinks
}

func TestNewAndMeasure(t *testing.T) {
	d, err := New(gridSinks(12))
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakCurrent <= 0 || m.VDDNoise <= 0 || m.GndNoise <= 0 {
		t.Fatalf("empty metrics: %+v", m)
	}
	if m.WorstSkew > 10 {
		t.Fatalf("synthesized skew %g", m.WorstSkew)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("no sinks should error")
	}
}

func TestSingleModeOptimizeImproves(t *testing.T) {
	d, err := New(gridSinks(12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Optimize(context.Background(), Config{Samples: 32, MaxIntervals: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.After.PeakCurrent > res.Before.PeakCurrent {
		t.Fatalf("peak got worse: %g → %g", res.Before.PeakCurrent, res.After.PeakCurrent)
	}
	if res.NumInverters == 0 {
		t.Fatal("expected polarity mixing")
	}
	if res.NumBuffers+res.NumInverters != 12 {
		t.Fatalf("leaf count mismatch: %d+%d", res.NumBuffers, res.NumInverters)
	}
	if res.After.WorstSkew > 22 {
		t.Fatalf("skew violated: %g", res.After.WorstSkew)
	}
	if res.PeakReduction() < 0 {
		t.Fatal("negative reduction reported for an improvement")
	}
	if res.Runtime <= 0 {
		t.Fatal("missing runtime")
	}
}

func TestBenchmarkLoading(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 7 {
		t.Fatalf("%d benchmarks", len(names))
	}
	d, err := Benchmark("s15850")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tree.Leaves()) != 19 {
		t.Fatalf("s15850 leaves = %d", len(d.Tree.Leaves()))
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestMultiModeOptimize(t *testing.T) {
	d, err := Benchmark("s15850")
	if err != nil {
		t.Fatal(err)
	}
	domains := d.PartitionVoltageIslands(4)
	if len(domains) != 4 {
		t.Fatalf("domains = %v", domains)
	}
	modes := []Mode{
		{Name: "M1", Supplies: map[string]float64{domains[0]: 1.1, domains[1]: 1.1, domains[2]: 1.1, domains[3]: 1.1}},
		{Name: "M2", Supplies: map[string]float64{domains[0]: 0.9, domains[1]: 1.1, domains[2]: 0.9, domains[3]: 1.1}},
	}
	if err := d.SetModes(modes); err != nil {
		t.Fatal(err)
	}
	res, err := d.Optimize(context.Background(), Config{Kappa: 14, Samples: 16, EnableADI: true, MaxIntersections: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.After.WorstSkew > 16 {
		t.Fatalf("multi-mode skew %g", res.After.WorstSkew)
	}
	if res.After.PeakCurrent > res.Before.PeakCurrent*1.05 {
		t.Fatalf("peak regressed: %g → %g", res.Before.PeakCurrent, res.After.PeakCurrent)
	}
}

func TestSetModesValidation(t *testing.T) {
	d, err := New(gridSinks(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetModes(nil); err == nil {
		t.Fatal("empty modes should error")
	}
}

// TestSetModesRejectsImpossibleSupplies: a supply that is NaN, infinite,
// zero, negative or above 10 V is refused at SetModes, which leaves the
// declared modes as they were, instead of failing inside the evaluator.
func TestSetModesRejectsImpossibleSupplies(t *testing.T) {
	d, err := Benchmark("s15850")
	if err != nil {
		t.Fatal(err)
	}
	domains := d.PartitionVoltageIslands(2)
	for _, sup := range []map[string]float64{
		{domains[0]: -1, domains[1]: 0},
		{domains[0]: math.NaN(), domains[1]: 1.1},
		{domains[0]: 1.1, domains[1]: math.Inf(1)},
		{domains[0]: 1.1, domains[1]: 10.5},
	} {
		if err := d.SetModes([]Mode{{Name: "bad", Supplies: sup}}); err == nil {
			t.Errorf("SetModes accepted supplies %v", sup)
		}
	}
	if len(d.Modes) != 1 || d.Modes[0].Name != NominalMode.Name {
		t.Fatalf("a refused SetModes changed the modes to %v", d.Modes)
	}
	if _, err := d.Measure(context.Background()); err != nil {
		t.Fatalf("Measure after refused modes: %v", err)
	}
	if err := d.SetModes([]Mode{{Name: "ok", Supplies: map[string]float64{domains[0]: 0.9, domains[1]: 1.1}}}); err != nil {
		t.Fatalf("SetModes refused valid supplies: %v", err)
	}
}

// TestSetModesRejectsConflictingNames: adjustable-buffer bank settings are
// kept per mode name, so two modes that share a name but not their
// supplies would share one setting, and ADB insertion cannot converge for
// both. SetModes refuses such a pair, names the mode and keeps the modes
// it had; an exact duplicate adds no constraint and is still accepted.
func TestSetModesRejectsConflictingNames(t *testing.T) {
	d, err := New(gridSinks(4))
	if err != nil {
		t.Fatal(err)
	}
	hi := Mode{Name: "M1", Supplies: map[string]float64{"a": 1.1, "b": 1.1}}
	lo := Mode{Name: "M1", Supplies: map[string]float64{"a": 0.9, "b": 1.1}}
	err = d.SetModes([]Mode{hi, lo})
	if err == nil {
		t.Fatal("SetModes accepted two modes named M1 with different supplies")
	}
	if !strings.Contains(err.Error(), `"M1"`) {
		t.Errorf("error %q does not name the mode", err)
	}
	if len(d.Modes) != 1 || d.Modes[0].Name != NominalMode.Name {
		t.Fatalf("a refused SetModes changed the modes to %v", d.Modes)
	}
	if err := d.SetModes([]Mode{{Supplies: lo.Supplies}}); err == nil {
		t.Fatal("SetModes accepted a mode without a name")
	}
	if err := d.SetModes([]Mode{hi, hi, {Name: "M2", Supplies: lo.Supplies}}); err != nil {
		t.Fatalf("SetModes refused an exact duplicate: %v", err)
	}
}

func TestPeakMinBaselineViaFacade(t *testing.T) {
	d, err := New(gridSinks(12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Optimize(context.Background(), Config{Samples: 16, Algorithm: PeakMin, MaxIntervals: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInverters == 0 {
		t.Fatal("PeakMin should also mix polarity")
	}
}

func TestDynamicPolarityViaFacade(t *testing.T) {
	d, err := Benchmark("s15850")
	if err != nil {
		t.Fatal(err)
	}
	domains := d.PartitionVoltageIslands(2)
	if err := d.SetModes([]Mode{
		{Name: "M1", Supplies: map[string]float64{domains[0]: 1.1, domains[1]: 1.1}},
		{Name: "M2", Supplies: map[string]float64{domains[0]: 0.9, domains[1]: 1.1}},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := d.OptimizeDynamicPolarity(context.Background(), Config{Samples: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positive) != len(d.Tree.Leaves()) {
		t.Fatalf("program covers %d leaves", len(res.Positive))
	}
	for _, m := range d.Modes {
		if res.PeakPerMode[m.Name] <= 0 {
			t.Fatalf("missing peak for %s", m.Name)
		}
		if res.FlipsPerMode[m.Name] == 0 {
			t.Fatalf("no flips in %s", m.Name)
		}
	}
}
