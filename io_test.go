package wavemin

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"wavemin/internal/cell"
)

func TestLoadSinksCSV(t *testing.T) {
	src := "x_um,y_um,cap_fF\n10.5,20.25,8\n30,40,6.5\n"
	sinks, err := LoadSinksCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks) != 2 {
		t.Fatalf("%d sinks", len(sinks))
	}
	if sinks[0] != (Sink{X: 10.5, Y: 20.25, Cap: 8}) {
		t.Fatalf("sink 0 = %+v", sinks[0])
	}
	// Headerless input also accepted.
	noHeader, err := LoadSinksCSV(strings.NewReader("1,2,3\n"))
	if err != nil || len(noHeader) != 1 {
		t.Fatalf("headerless: %v %v", noHeader, err)
	}
}

func TestLoadSinksCSVErrors(t *testing.T) {
	for i, src := range []string{
		"",
		"x_um,y_um,cap_fF\n1,2\n",
		"x_um,y_um,cap_fF\n1,2,abc\n",
		"x_um,y_um,cap_fF\n1,2,0\n",
		"x_um,y_um,cap_fF\n1,2,-5\n",
	} {
		if _, err := LoadSinksCSV(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSaveLoadTreeRoundTrip(t *testing.T) {
	d, err := New(gridSinks(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Optimize(context.Background(), Config{Samples: 16, MaxIntervals: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveTree(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := d.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := d2.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1.PeakCurrent-m2.PeakCurrent) > 1e-6 {
		t.Fatalf("peak after round trip: %g vs %g", m1.PeakCurrent, m2.PeakCurrent)
	}
	if math.Abs(m1.WorstSkew-m2.WorstSkew) > 1e-9 {
		t.Fatalf("skew after round trip: %g vs %g", m1.WorstSkew, m2.WorstSkew)
	}
}

func TestLoadTreeRejectsGarbage(t *testing.T) {
	if _, err := LoadTree(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error")
	}
}

func TestBenchgenCSVComposesWithLoadSinks(t *testing.T) {
	// The same CSV dialect benchgen emits round-trips through LoadSinksCSV
	// into a synthesizable design.
	src := "x_um,y_um,cap_fF\n"
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf("%.3f,%.3f,8\n", 10+float64(i*10), 10+float64((i%2)*20))
	}
	sinks, err := LoadSinksCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(sinks)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tree.Leaves()) != 8 {
		t.Fatalf("%d leaves", len(d.Tree.Leaves()))
	}
}

// TestLoadTreeLeavesSharedLibraryUnchanged: loaded designs resolve their
// cells against one shared default library, so nothing a multi-mode
// ClkWaveMin run with ADB and ADI insertion does to a loaded design may
// edit a cell of it.
func TestLoadTreeLeavesSharedLibraryUnchanged(t *testing.T) {
	src, err := Benchmark("s15850")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveTree(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := LoadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	domains, err := d.PartitionVoltageIslands(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetModes([]Mode{
		{Name: "M1", Supplies: map[string]float64{domains[0]: 1.1, domains[1]: 1.1}},
		{Name: "M2", Supplies: map[string]float64{domains[0]: 0.9, domains[1]: 1.1}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Optimize(context.Background(), Config{Kappa: 14, Samples: 16, EnableADI: true, MaxIntersections: 4}); err != nil {
		t.Fatal(err)
	}
	got, want := cell.SharedDefaultLibrary().Cells(), cell.DefaultLibrary().Cells()
	for i := range want {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Errorf("shared library cell %s is %+v, want %+v", want[i].Name, *got[i], *want[i])
		}
	}
}
