package powergrid

import (
	"context"
	"testing"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
	"wavemin/internal/waveform"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(0, 100, DefaultOptions()); err == nil {
		t.Error("zero die should error")
	}
	bad := DefaultOptions()
	bad.Pitch = 0
	if _, err := New(100, 100, bad); err == nil {
		t.Error("zero pitch should error")
	}
	g, err := New(200, 200, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() < 25 {
		t.Fatalf("node count %d too small for 200x200 at pitch 50", g.NodeCount())
	}
}

func TestQuietGridIsQuiet(t *testing.T) {
	g, _ := New(150, 150, DefaultOptions())
	rep, err := g.Simulate(context.Background(), nil, 0, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VDDNoise > 1e-6 || rep.GndNoise > 1e-6 {
		t.Fatalf("no injections but noise %g/%g", rep.VDDNoise, rep.GndNoise)
	}
}

func TestInjectionCausesBothRailNoise(t *testing.T) {
	g, _ := New(150, 150, DefaultOptions())
	inj := []Injection{{
		X: 75, Y: 75,
		IDD: waveform.Triangle(20, 10, 15, 5000),
		ISS: waveform.Triangle(20, 10, 15, 3000),
	}}
	rep, err := g.Simulate(context.Background(), inj, 0, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VDDNoise <= 0 || rep.GndNoise <= 0 {
		t.Fatalf("expected noise on both rails, got %g/%g", rep.VDDNoise, rep.GndNoise)
	}
	// IDD pulse bigger than ISS → VDD noise should exceed Gnd noise.
	if rep.VDDNoise <= rep.GndNoise {
		t.Fatalf("VDD noise %g should exceed Gnd noise %g", rep.VDDNoise, rep.GndNoise)
	}
	// mV-scale sanity: a 5 mA draw on a ~0.1 Ω/segment mesh.
	if rep.VDDNoise < 0.0002 || rep.VDDNoise > 0.2 {
		t.Fatalf("VDD noise %g V implausible", rep.VDDNoise)
	}
}

func TestDenseGridIsQuieter(t *testing.T) {
	inj := []Injection{{X: 75, Y: 75, IDD: waveform.Triangle(20, 10, 15, 8000)}}
	sparse, _ := New(150, 150, DefaultOptions())
	dense, _ := New(150, 150, DenseOptions())
	rs, err := sparse.Simulate(context.Background(), inj, 0, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dense.Simulate(context.Background(), inj, 0, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rd.VDDNoise >= rs.VDDNoise {
		t.Fatalf("dense grid (%g) should be quieter than sparse (%g)", rd.VDDNoise, rs.VDDNoise)
	}
}

func TestNoiseIsLocal(t *testing.T) {
	// Two identical pulses injected at the same node produce more noise
	// than the same two pulses injected far apart — power noise locality,
	// the reason WaveMin optimizes zone by zone.
	g, _ := New(400, 400, DefaultOptions())
	pulse := waveform.Triangle(20, 10, 15, 4000)
	same := []Injection{{X: 200, Y: 200, IDD: pulse}, {X: 200, Y: 200, IDD: pulse}}
	apart := []Injection{{X: 60, Y: 60, IDD: pulse}, {X: 340, Y: 340, IDD: pulse}}
	rSame, err := g.Simulate(context.Background(), same, 0, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	rApart, err := g.Simulate(context.Background(), apart, 0, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rSame.VDDNoise <= rApart.VDDNoise {
		t.Fatalf("colocated noise %g should exceed spread noise %g", rSame.VDDNoise, rApart.VDDNoise)
	}
}

func TestTimeSpreadingReducesNoise(t *testing.T) {
	// The WaveMin premise: the same charge drawn at staggered times causes
	// less rail droop than drawn simultaneously.
	g, _ := New(150, 150, DefaultOptions())
	p := waveform.Triangle(20, 10, 15, 4000)
	together := []Injection{{X: 75, Y: 75, IDD: p}, {X: 80, Y: 75, IDD: p}}
	staggered := []Injection{{X: 75, Y: 75, IDD: p}, {X: 80, Y: 75, IDD: p.Shift(60)}}
	rT, err := g.Simulate(context.Background(), together, 0, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	rS, err := g.Simulate(context.Background(), staggered, 0, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rS.VDDNoise >= rT.VDDNoise {
		t.Fatalf("staggered %g should be quieter than simultaneous %g", rS.VDDNoise, rT.VDDNoise)
	}
}

func TestMeasureTreeNoise(t *testing.T) {
	lib := cell.DefaultLibrary()
	sinks := []cts.Sink{
		{X: 20, Y: 20, Cap: 8}, {X: 120, Y: 30, Cap: 8},
		{X: 40, Y: 110, Cap: 8}, {X: 130, Y: 120, Cap: 8},
	}
	tree, err := cts.Synthesize(sinks, lib, cts.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tm := tree.ComputeTiming(clocktree.NominalMode)
	g, _ := New(150, 150, DefaultOptions())
	vddN, gndN, err := g.MeasureTreeNoise(context.Background(), tree, tm)
	if err != nil {
		t.Fatal(err)
	}
	if vddN <= 0 || gndN <= 0 {
		t.Fatalf("tree noise %g/%g", vddN, gndN)
	}
}

func TestTreeInjectionsCount(t *testing.T) {
	lib := cell.DefaultLibrary()
	tree, err := cts.Synthesize([]cts.Sink{{X: 10, Y: 10, Cap: 8}, {X: 90, Y: 90, Cap: 8}}, lib, cts.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tm := tree.ComputeTiming(clocktree.NominalMode)
	inj := TreeInjections(tree, tm, cell.Rising)
	if len(inj) != tree.Len() {
		t.Fatalf("%d injections, want %d", len(inj), tree.Len())
	}
}
