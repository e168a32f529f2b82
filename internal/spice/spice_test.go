package spice

import (
	"context"
	"math"
	"testing"

	"wavemin/internal/waveform"
)

func TestResistorDividerDC(t *testing.T) {
	// VDD --R1-- mid --R2-- gnd; mid should sit at VDD·R2/(R1+R2).
	c := NewCircuit()
	vdd := c.Node("vdd")
	mid := c.Node("mid")
	c.V(vdd, 1.0)
	c.R(vdd, mid, 1.0)
	c.R(mid, Ground, 3.0)
	res, err := c.Transient(context.Background(), 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.75
	for k := range res.Times {
		if got := res.VoltageAt(mid, k); math.Abs(got-want) > 1e-9 {
			t.Fatalf("step %d: mid = %g, want %g", k, got, want)
		}
	}
}

func TestRCStepResponse(t *testing.T) {
	// Current step into an RC to ground: v(t) = I·R·(1 − e^(−t/RC)).
	c := NewCircuit()
	n := c.Node("n")
	c.R(n, Ground, 2.0)   // 2 kΩ
	c.C(n, Ground, 100.0) // 100 fF → τ = 200 ps
	// 1000 µA (=1 mA) step from ground into n. The step begins just after
	// t0 so the DC operating point is v=0 (a source active at t0 would be
	// folded into the initial condition).
	step := waveform.MustNew([]waveform.Point{{T: 0, I: 0}, {T: 1, I: 1000}, {T: 10000, I: 1000}})
	c.I(Ground, n, step)
	res, err := c.Transient(context.Background(), 0, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tau := 200.0
	vinf := 2.0 // I·R = 1 mA · 2 kΩ = 2 V
	for _, probe := range []float64{100, 200, 400, 800} {
		k := int(probe)
		want := vinf * (1 - math.Exp(-(probe-1)/tau))
		got := res.VoltageAt(n, k)
		if math.Abs(got-want) > 0.01*vinf {
			t.Errorf("v(%g ps) = %g, want %g", probe, got, want)
		}
	}
}

func TestSupplyCurrentMeasuresLoad(t *testing.T) {
	// Supply pad → resistor → ground. Delivered current = V/R.
	c := NewCircuit()
	vdd := c.Node("vdd")
	c.V(vdd, 1.1)
	c.R(vdd, Ground, 1.1) // → 1 mA
	res, err := c.Transient(context.Background(), 0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	iw := res.SupplyCurrent(0)
	if got := iw.At(3); math.Abs(got-1000) > 1e-2 {
		t.Fatalf("supply current %g µA, want 1000", got)
	}
}

func TestRailDroopFromCurrentPulse(t *testing.T) {
	// A current pulse drawn from a rail behind a grid resistance causes a
	// droop ΔV ≈ I·R (plus RC smoothing) — the power-noise mechanism.
	c := NewCircuit()
	pad := c.Node("pad")
	rail := c.Node("rail")
	c.V(pad, 1.1)
	c.R(pad, rail, 0.05)                          // 50 Ω grid resistance
	c.C(rail, Ground, 500)                        // decap
	pulse := waveform.Triangle(100, 20, 30, 2000) // 2 mA peak
	c.I(rail, Ground, pulse)
	res, err := c.Transient(context.Background(), 0, 400, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	droop := res.MaxDeviation(rail, 1.1)
	// Without the decap it would be I·R = 2 mA·50 Ω = 100 mV; the decap
	// must reduce it but it must stay clearly nonzero.
	if droop <= 0.005 || droop >= 0.100 {
		t.Fatalf("droop = %g V, want within (0.005, 0.100)", droop)
	}
	// Before the pulse the rail must sit at VDD.
	if d := math.Abs(res.VoltageAt(rail, 10) - 1.1); d > 1e-6 {
		t.Fatalf("pre-pulse rail off nominal by %g", d)
	}
}

func TestSuperpositionOfInjections(t *testing.T) {
	// Linear circuit: response to two pulses = sum of individual responses.
	build := func(p1, p2 bool) *Circuit {
		c := NewCircuit()
		pad := c.Node("pad")
		rail := c.Node("rail")
		c.V(pad, 1.0)
		c.R(pad, rail, 0.1)
		c.C(rail, Ground, 100)
		if p1 {
			c.I(rail, Ground, waveform.Triangle(50, 10, 10, 500))
		}
		if p2 {
			c.I(rail, Ground, waveform.Triangle(80, 10, 10, 800))
		}
		return c
	}
	r12, err := build(true, true).Transient(context.Background(), 0, 200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := build(true, false).Transient(context.Background(), 0, 200, 0.5)
	r2, _ := build(false, true).Transient(context.Background(), 0, 200, 0.5)
	rail := 2 // node indices identical across builds
	for k := range r12.Times {
		lhs := r12.VoltageAt(rail, k) - 1.0
		rhs := (r1.VoltageAt(rail, k) - 1.0) + (r2.VoltageAt(rail, k) - 1.0)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("superposition violated at step %d: %g vs %g", k, lhs, rhs)
		}
	}
}

func TestChargeConservation(t *testing.T) {
	// All charge delivered by the supply through R must equal charge drawn
	// by the pulse once the rail has recovered.
	c := NewCircuit()
	pad := c.Node("pad")
	rail := c.Node("rail")
	c.V(pad, 1.0)
	c.R(pad, rail, 0.1)
	c.C(rail, Ground, 50)
	pulse := waveform.Triangle(50, 10, 10, 1000)
	c.I(rail, Ground, pulse)
	res, err := c.Transient(context.Background(), 0, 2000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	supplied := res.SupplyCurrent(0).Charge()
	drawn := pulse.Charge()
	if math.Abs(supplied-drawn) > 0.01*drawn {
		t.Fatalf("charge: supplied %g, drawn %g", supplied, drawn)
	}
}

func TestVoltageWaveformAccessor(t *testing.T) {
	c := NewCircuit()
	v := c.Node("v")
	c.V(v, 0.5)
	res, err := c.Transient(context.Background(), 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Voltage(v)
	if w.Len() != 4 {
		t.Fatalf("voltage waveform has %d pts, want 4", w.Len())
	}
	if math.Abs(w.At(1.5)-0.5) > 1e-9 {
		t.Fatalf("voltage waveform value %g", w.At(1.5))
	}
}

func TestNodeManagement(t *testing.T) {
	c := NewCircuit()
	a := c.Node("a")
	if c.Node("a") != a {
		t.Fatal("Node must be idempotent")
	}
	if c.NodeName(a) != "a" {
		t.Fatal("NodeName round-trip failed")
	}
	if c.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2 (ground + a)", c.NumNodes())
	}
}

func TestBadInputs(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.R(n, Ground, 1)
	if _, err := c.Transient(context.Background(), 10, 5, 1); err == nil {
		t.Error("reversed window should error")
	}
	if _, err := c.Transient(context.Background(), 0, 5, 0); err == nil {
		t.Error("zero dt should error")
	}
	if _, err := NewCircuit().Transient(context.Background(), 0, 1, 0.1); err == nil {
		t.Error("empty circuit should error")
	}
	if _, err := c.MaxDeviations(context.Background(), 0, 5, 0, []float64{0, 0}); err == nil {
		t.Error("MaxDeviations: zero dt should error")
	}
	if _, err := c.MaxDeviations(context.Background(), 0, 5, 1, []float64{0}); err == nil {
		t.Error("MaxDeviations: one reference voltage for two nodes should error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative resistance should panic")
			}
		}()
		c.R(n, Ground, -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative capacitance should panic")
			}
		}()
		c.C(n, Ground, -1)
	}()
}

func TestVSourceOnGroundRejected(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.R(n, Ground, 1)
	c.V(Ground, 1.0)
	if _, err := c.Transient(context.Background(), 0, 1, 0.5); err == nil {
		t.Fatal("voltage source on ground should error")
	}
}

func TestZeroCapIgnored(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.C(n, Ground, 0)
	c.R(n, Ground, 1)
	c.V(n, 1)
	if _, err := c.Transient(context.Background(), 0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestTrapezoidalAccuracyOrder(t *testing.T) {
	// Halving dt should reduce the RC step-response error by ≈4× (2nd order).
	run := func(dt float64) float64 {
		c := NewCircuit()
		n := c.Node("n")
		c.R(n, Ground, 2.0)
		c.C(n, Ground, 100.0)
		// Linear ramp onto the step over [0,8] so both dt grids resolve it
		// identically and the DC point is zero.
		step := waveform.MustNew([]waveform.Point{{T: 0, I: 0}, {T: 8, I: 1000}, {T: 10000, I: 1000}})
		c.I(Ground, n, step)
		res, err := c.Transient(context.Background(), 0, 400, dt)
		if err != nil {
			t.Fatal(err)
		}
		// Reference from a very fine run instead of the closed form (the
		// ramp makes the exact expression messy).
		cRef := NewCircuit()
		nr := cRef.Node("n")
		cRef.R(nr, Ground, 2.0)
		cRef.C(nr, Ground, 100.0)
		cRef.I(Ground, nr, step)
		ref, err := cRef.Transient(context.Background(), 0, 400, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.VoltageAt(nr, len(ref.Times)-1)
		return math.Abs(res.VoltageAt(n, len(res.Times)-1) - want)
	}
	e1 := run(8)
	e2 := run(4)
	if e2 >= e1/2 {
		t.Fatalf("trapezoidal convergence too slow: e(8)=%g e(4)=%g", e1, e2)
	}
}
