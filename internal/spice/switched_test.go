package spice

import (
	"context"
	"math"
	"testing"

	"wavemin/internal/waveform"
)

func waveformZero() waveform.Waveform { return waveform.Waveform{} }

func TestSwitchedRDischargesOutput(t *testing.T) {
	// An "inverter" made of two switched resistors: output precharged
	// high, then the pull-down turns on at t=50 and the pull-up off.
	c := NewCircuit()
	vdd := c.Node("vdd")
	out := c.Node("out")
	c.V(vdd, 1.1)
	c.SwitchedR(vdd, out, RampOff(50, 10, 1.0))
	c.SwitchedR(out, Ground, RampOn(50, 10, 1.0))
	c.C(out, Ground, 20)
	res, err := c.Transient(context.Background(), 0, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Voltage(out)
	if got := v.At(40); math.Abs(got-1.1) > 0.01 {
		t.Fatalf("pre-switch output %g, want ~1.1", got)
	}
	if got := v.At(290); got > 0.05 {
		t.Fatalf("post-switch output %g, want ~0", got)
	}
	// The discharge current must appear at the ground side, i.e. the
	// supply delivers a crowbar blip then nothing.
	idd := res.SupplyCurrent(0)
	peakAfter, at := idd.Clip(45, 300).Peak()
	if peakAfter <= 0 {
		t.Fatal("no crowbar current")
	}
	if at > 70 {
		t.Fatalf("crowbar at %g, want during the 50..60 overlap", at)
	}
}

func TestSwitchedRChargesOutput(t *testing.T) {
	c := NewCircuit()
	vdd := c.Node("vdd")
	out := c.Node("out")
	c.V(vdd, 1.0)
	c.SwitchedR(vdd, out, RampOn(50, 10, 2.0))
	c.SwitchedR(out, Ground, RampOff(50, 10, 2.0))
	c.C(out, Ground, 30)
	res, err := c.Transient(context.Background(), 0, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Voltage(out)
	if got := v.At(40); got > 0.05 {
		t.Fatalf("pre-switch output %g, want ~0", got)
	}
	if got := v.At(290); math.Abs(got-1.0) > 0.05 {
		t.Fatalf("post-switch output %g, want ~1", got)
	}
	// Delivered charge ≈ C·V.
	q := res.SupplyCurrent(0).Clip(45, 300).Charge()
	want := 1000 * 30 * 1.0
	if math.Abs(q-want) > 0.2*want {
		t.Fatalf("delivered charge %g, want ≈%g", q, want)
	}
}

func TestRampValidation(t *testing.T) {
	for _, f := range []func(){
		func() { RampOn(0, 0, 1) },
		func() { RampOn(0, 1, 0) },
		func() { RampOff(0, -1, 1) },
		func() {
			c := NewCircuit()
			c.SwitchedR(c.Node("a"), Ground, waveformZero())
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestMaxDeviationsMatchResult: with switched elements the transient
// re-factors every step; the running maxima still equal, bit for bit,
// what Result.MaxDeviation reads off the recorded table, ground included.
func TestMaxDeviationsMatchResult(t *testing.T) {
	c := NewCircuit()
	vdd := c.Node("vdd")
	out := c.Node("out")
	c.V(vdd, 1.1)
	c.SwitchedR(vdd, out, RampOff(50, 10, 1.0))
	c.SwitchedR(out, Ground, RampOn(50, 10, 1.0))
	c.C(out, Ground, 20)
	c.I(out, Ground, waveform.Triangle(80, 5, 15, 300))
	ctx := context.Background()
	res, err := c.Transient(ctx, 0, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ref := []float64{0.3, 1.1, 0.55}
	dev, err := c.MaxDeviations(ctx, 0, 300, 0.5, ref)
	if err != nil {
		t.Fatal(err)
	}
	for n := range dev {
		if want := res.MaxDeviation(n, ref[n]); math.Float64bits(dev[n]) != math.Float64bits(want) {
			t.Errorf("node %s: MaxDeviations %g, Result.MaxDeviation %g", c.NodeName(n), dev[n], want)
		}
	}
}
