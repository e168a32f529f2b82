package powergrid

import (
	"context"
	"math"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

// TestMeasureTreeNoiseBitsPinned pins the exact VDD and Gnd noise of the
// seven paper circuits, as synthesized and on the grid each is measured
// against, to the bits the dense LU solve produced. The transient's
// sparse-row solve subtracts the same nonzero products in the same order,
// so any change here means the grid measurement itself changed.
func TestMeasureTreeNoiseBitsPinned(t *testing.T) {
	want := map[string][2]uint64{
		"s13207":    {0x3f58ad6a993a4c00, 0x3f5c81f4105e1810}, // 0.00150619 V, 0.00173997 V
		"s15850":    {0x3f3d06180ab70000, 0x3f404a6e0004a88a}, // 0.000442868 V, 0.000497154 V
		"s35932":    {0x3f6d6d899b823600, 0x3f70f8ee317e693c}, // 0.00359227 V, 0.00414365 V
		"s38417":    {0x3f6b98ebec3d7400, 0x3f6fd139528c1ca6}, // 0.00336882 V, 0.00388395 V
		"s38584":    {0x3f63fab91a497e00, 0x3f673caf552f45b1}, // 0.00243889 V, 0.00283655 V
		"ispd09f31": {0x3f3846e0e6855000, 0x3f3a852ad4e5098f}, // 0.000370436 V, 0.000404666 V
		"ispd09f34": {0x3f25d050adc80000, 0x3f28808fd07b69f7}, // 0.000166426 V, 0.000186937 V
	}
	specs := bench.Specs()
	if len(specs) != len(want) {
		t.Fatalf("%d bench circuits, %d pinned", len(specs), len(want))
	}
	for _, spec := range specs {
		opt := cts.DefaultOptions()
		opt.LeafCell = "BUF_X8"
		tree, err := spec.Synthesize(cell.DefaultLibrary(), opt)
		if err != nil {
			t.Fatal(err)
		}
		gopt := DefaultOptions()
		if spec.Clustered {
			gopt = DenseOptions()
		}
		g, err := New(spec.DieW, spec.DieH, gopt)
		if err != nil {
			t.Fatal(err)
		}
		vdd, gnd, err := g.MeasureTreeNoise(context.Background(), tree, tree.ComputeTiming(clocktree.NominalMode))
		if err != nil {
			t.Fatal(err)
		}
		got := [2]uint64{math.Float64bits(vdd), math.Float64bits(gnd)}
		if got != want[spec.Name] {
			t.Errorf("%s: noise bits %#016x/%#016x (%g/%g V), want %#016x/%#016x",
				spec.Name, got[0], got[1], vdd, gnd, want[spec.Name][0], want[spec.Name][1])
		}
	}
}

// TestMaxDeviationsMatchTransient: on the grid and injections of each
// paper circuit, as synthesized and at both source edges, the running
// maxima Simulate reads equal bit for bit what Result.MaxDeviation reads
// off the full transient table, at every node of the circuit.
func TestMaxDeviationsMatchTransient(t *testing.T) {
	for _, spec := range bench.Specs() {
		opt := cts.DefaultOptions()
		opt.LeafCell = "BUF_X8"
		tree, err := spec.Synthesize(cell.DefaultLibrary(), opt)
		if err != nil {
			t.Fatal(err)
		}
		gopt := DefaultOptions()
		if spec.Clustered {
			gopt = DenseOptions()
		}
		g, err := New(spec.DieW, spec.DieH, gopt)
		if err != nil {
			t.Fatal(err)
		}
		tm := tree.ComputeTiming(clocktree.NominalMode)
		for _, e := range []cell.Edge{cell.Rising, cell.Falling} {
			inj := TreeInjections(tree, tm, e)
			t1 := 0.0
			for _, in := range inj {
				t1 = math.Max(t1, math.Max(in.IDD.Last(), in.ISS.Last()))
			}
			m, err := g.circuit(inj)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			res, err := m.ckt.Transient(ctx, 0, t1+100, 2)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := m.ckt.MaxDeviations(ctx, 0, t1+100, 2, m.ref)
			if err != nil {
				t.Fatal(err)
			}
			for n := range dev {
				if want := res.MaxDeviation(n, m.ref[n]); math.Float64bits(dev[n]) != math.Float64bits(want) {
					t.Fatalf("%s/%v: node %s deviates %g, the transient table says %g",
						spec.Name, e, m.ckt.NodeName(n), dev[n], want)
				}
			}
		}
	}
}
