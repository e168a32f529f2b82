package polarity

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

// TestZonesTranslateAcrossOrigin moves a design by whole zone pitches,
// across the origin and away from it: every tile must keep its members,
// its key shifted by the same number of pitches, and ClkWaveMin must pick
// the same assignment. Where the origin falls must not change the tiling.
func TestZonesTranslateAcrossOrigin(t *testing.T) {
	lib := cell.DefaultLibrary()
	sub, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sinks := make([]cts.Sink, 24)
	for i := range sinks {
		sinks[i] = cts.Sink{X: 5 + rng.Float64()*190, Y: 5 + rng.Float64()*140, Cap: 4 + rng.Float64()*8}
	}
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := cts.Synthesize(sinks, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Library: sub, Kappa: 20, Samples: 16, Epsilon: 0.05, Algorithm: ClkWaveMin}
	ref := PartitionZones(tree, DefaultZoneSize)
	refRes, err := Optimize(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range [][2]int{{-2, -1}, {-4, -3}, {-1, 0}, {3, 2}} {
		moved := tree.Clone()
		moved.Walk(func(n *clocktree.Node) {
			n.X += float64(shift[0]) * DefaultZoneSize
			n.Y += float64(shift[1]) * DefaultZoneSize
		})
		got := PartitionZones(moved, DefaultZoneSize)
		if len(got) != len(ref) {
			t.Fatalf("shift %v: %d zones, want %d", shift, len(got), len(ref))
		}
		for i, z := range ref {
			z.Key = [2]int{z.Key[0] + shift[0], z.Key[1] + shift[1]}
			if !reflect.DeepEqual(got[i], z) {
				t.Fatalf("shift %v: zone %d is %+v, want %+v", shift, i, got[i], z)
			}
		}
		res, err := Optimize(context.Background(), moved, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Assignment, refRes.Assignment) || res.PeakEstimate != refRes.PeakEstimate {
			t.Fatalf("shift %v: assignment or peak estimate (%g, want %g) changed", shift, res.PeakEstimate, refRes.PeakEstimate)
		}
	}
}
