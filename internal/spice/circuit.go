// Package spice is a small transient simulator for linear RC circuits with
// time-varying current sources and ideal voltage sources — the behavioural
// substitute for the paper's HSPICE runs.
//
// It implements modified nodal analysis (MNA) with trapezoidal companion
// models for capacitors. The circuits the WaveMin flow needs are linear
// (the nonlinear transistors are abstracted into the characterized current
// pulses of internal/cell), so a single LU factorization per time step size
// suffices and simulation is fast and unconditionally stable.
//
// Units: volts, kΩ, fF, ps. With these, conductance is mS and current is
// mA internally; the public API takes and returns µA so it composes with
// internal/waveform and internal/cell without conversion factors at call
// sites.
package spice

import (
	"fmt"

	"wavemin/internal/waveform"
)

// Ground is the reference node; it is always index 0 and named "0".
const Ground = 0

// Circuit is a netlist under construction. The zero value is not usable;
// call NewCircuit.
type Circuit struct {
	names   []string
	indexOf map[string]int

	resistors []resistor
	caps      []capacitor
	isources  []isource
	vsources  []vsource
	switched  []switchedR
}

type resistor struct {
	a, b int
	g    float64 // conductance, mS (1/kΩ)
}

type capacitor struct {
	a, b int
	c    float64 // fF
}

type isource struct {
	from, to int
	w        waveform.Waveform // µA, positive = current flows from→to
}

type vsource struct {
	node int
	v    float64 // volts, DC
}

// NewCircuit returns an empty circuit containing only the ground node.
func NewCircuit() *Circuit {
	c := &Circuit{indexOf: map[string]int{"0": Ground}}
	c.names = []string{"0"}
	return c
}

// Node returns the index of the named node, creating it if necessary.
func (c *Circuit) Node(name string) int {
	if i, ok := c.indexOf[name]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.indexOf[name] = i
	return i
}

// NodeName returns the name of node i.
func (c *Circuit) NodeName(i int) string { return c.names[i] }

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return len(c.names) }

// R adds a resistor of r kΩ between nodes a and b.
func (c *Circuit) R(a, b int, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("spice: non-positive resistance %g", r))
	}
	c.resistors = append(c.resistors, resistor{a: a, b: b, g: 1 / r})
}

// C adds a capacitor of f fF between nodes a and b.
func (c *Circuit) C(a, b int, f float64) {
	if f < 0 {
		panic(fmt.Sprintf("spice: negative capacitance %g", f))
	}
	if f == 0 {
		return
	}
	c.caps = append(c.caps, capacitor{a: a, b: b, c: f})
}

// I adds a time-varying current source drawing w µA from node `from` into
// node `to`. To model a cell pulling current out of a supply rail node n,
// use I(n, Ground, pulse).
func (c *Circuit) I(from, to int, w waveform.Waveform) {
	c.isources = append(c.isources, isource{from: from, to: to, w: w})
}

// V pins a node to a DC voltage (an ideal supply pad).
func (c *Circuit) V(node int, volts float64) {
	c.vsources = append(c.vsources, vsource{node: node, v: volts})
}

// Result holds a transient solution on a uniform time grid. Both tables
// are step-major and flat: step k's row starts at k times the row length.
type Result struct {
	Times   []float64 // ps
	nodes   int       // row length of v: every node, ground included
	sources int       // row length of isrcV: one per voltage source
	v       []float64 // v[k*nodes+node], volts
	isrcV   []float64 // isrcV[k*sources+i] branch currents, mA
}

// VoltageAt returns node's voltage at step k.
func (r *Result) VoltageAt(node, k int) float64 { return r.v[k*r.nodes+node] }

// Voltage returns the node's full voltage waveform (volts vs ps).
func (r *Result) Voltage(node int) waveform.Waveform {
	pts := make([]waveform.Point, len(r.Times))
	for k, t := range r.Times {
		pts[k] = waveform.Point{T: t, I: r.v[k*r.nodes+node]}
	}
	return waveform.MustNew(pts)
}

// SupplyCurrent returns the current delivered by the i-th voltage source
// added to the circuit, in µA. This is how "peak current drawn from the
// VDD pad" is measured, mirroring probing a supply in HSPICE.
func (r *Result) SupplyCurrent(i int) waveform.Waveform {
	pts := make([]waveform.Point, len(r.Times))
	for k, t := range r.Times {
		pts[k] = waveform.Point{T: t, I: r.isrcV[k*r.sources+i] * 1000} // mA→µA
	}
	return waveform.MustNew(pts)
}

// MaxDeviation returns the largest |V(node) − ref| over the run, in volts.
// With ref the nominal rail voltage this is the paper's "voltage
// fluctuation" noise metric.
func (r *Result) MaxDeviation(node int, ref float64) float64 {
	var worst float64
	for k := range r.Times {
		d := r.v[k*r.nodes+node] - ref
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
