package clocktree

import (
	"fmt"
	"math"
)

// Mode is a power mode: a named assignment of supply voltages to voltage
// domains. Designs with a single power mode use NominalMode.
type Mode struct {
	Name     string
	Supplies map[string]float64 // domain → VDD, volts
}

// NominalVDD is the supply used for unmapped domains.
const NominalVDD = 1.1

// NominalMode is the single-power-mode operating point: every domain at
// NominalVDD.
var NominalMode = Mode{Name: "nominal", Supplies: nil}

// VDDOf returns the mode's supply for a domain, falling back to NominalVDD.
func (m Mode) VDDOf(domain string) float64 {
	if v, ok := m.Supplies[domain]; ok {
		return v
	}
	return NominalVDD
}

// maxSupply is the highest supply voltage a mode may declare, volts.
const maxSupply = 10.0

// Validate rejects a supply no circuit runs at: NaN, ±Inf, ≤ 0 V or above
// 10 V. Such a supply turns delays and arrival times NaN, and nothing
// downstream can evaluate those. With several bad domains it names the
// first in sorted order, so the error does not vary from run to run.
func (m Mode) Validate() error {
	bad, found := "", false
	for dom, v := range m.Supplies {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > maxSupply {
			if !found || dom < bad {
				bad, found = dom, true
			}
		}
	}
	if found {
		return fmt.Errorf("clocktree: mode %q: domain %q has implausible supply %g V", m.Name, bad, m.Supplies[bad])
	}
	return nil
}

// Timing holds the per-node timing solution of one tree in one mode.
// Arrays are indexed by NodeID.
type Timing struct {
	Mode Mode

	Load    []float64 // capacitive load on each node's output, fF
	ATIn    []float64 // clock arrival at the node's input, ps
	ATOut   []float64 // clock arrival at the node's output, ps
	SlewIn  []float64 // input transition, ps
	SlewOut []float64 // output transition, ps
}

// rootInputSlew is the transition time of the clock source driving the
// root, ps.
const rootInputSlew = 25.0

// wireSlewDegrade is how much of a wire's own RC time constant is added to
// the slew as the edge propagates along it.
const wireSlewDegrade = 0.7

// ComputeTiming solves loads, Elmore arrival times, and slews for the tree
// in the given mode.
//
// Model: a node's output load is the sum over children of (wire cap +
// child input cap) plus its sink cap. A node's delay is its cell delay at
// that load and the mode's VDD for its domain, plus its capacitor-bank
// setting for the mode. The wire from a parent to a child adds the Elmore
// term Rw·(Cw/2 + Cin(child)).
func (t *Tree) ComputeTiming(mode Mode) *Timing {
	n := len(t.nodes)
	tm := &Timing{
		Mode: mode,
		Load: make([]float64, n), ATIn: make([]float64, n), ATOut: make([]float64, n),
		SlewIn: make([]float64, n), SlewOut: make([]float64, n),
	}
	// Loads: children are created after parents, so a reverse sweep sees
	// children first — but load only needs immediate children, computable
	// in any order.
	for _, nd := range t.nodes {
		load := nd.SinkCap
		for _, chID := range nd.Children {
			ch := t.nodes[chID]
			load += ch.WireCap + ch.Cell.InputCap()
		}
		tm.Load[nd.ID] = load
	}
	// Arrival times and slews: explicit preorder (parents before children;
	// IDs are not necessarily ordered once wires have been split).
	t.Walk(func(nd *Node) {
		vdd := mode.VDDOf(nd.Domain)
		if nd.Parent == NoNode {
			tm.ATIn[nd.ID] = 0
			tm.SlewIn[nd.ID] = rootInputSlew
		} else {
			p := t.nodes[nd.Parent]
			wireDelay := nd.WireRes * (nd.WireCap/2 + nd.Cell.InputCap())
			tm.ATIn[nd.ID] = tm.ATOut[p.ID] + wireDelay
			tm.SlewIn[nd.ID] = tm.SlewOut[p.ID] + wireSlewDegrade*nd.WireRes*nd.WireCap
		}
		d := (nd.Cell.Delay(tm.Load[nd.ID], vdd) + nd.AdjustDelay(mode.Name)) * nd.delayScale()
		tm.ATOut[nd.ID] = tm.ATIn[nd.ID] + d
		tm.SlewOut[nd.ID] = nd.Cell.Slew(tm.Load[nd.ID], vdd)
	})
	return tm
}

// Skew returns the clock skew: max − min leaf arrival time. It reads the
// leaves in place, so it allocates nothing.
func (tm *Timing) Skew(t *Tree) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, n := range t.nodes {
		if !n.IsLeaf() {
			continue
		}
		at := tm.ATOut[n.ID]
		if at < lo {
			lo = at
		}
		if at > hi {
			hi = at
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return hi - lo
}

// SkewAcrossModes returns the worst skew over the given modes and the mode
// that attains it.
func (t *Tree) SkewAcrossModes(modes []Mode) (worst float64, in Mode) {
	for i, m := range modes {
		s := t.ComputeTiming(m).Skew(t)
		if i == 0 || s > worst {
			worst, in = s, m
		}
	}
	return worst, in
}

// MeetsSkew reports whether the tree's skew is within kappa in every mode.
func (t *Tree) MeetsSkew(kappa float64, modes []Mode) bool {
	for _, m := range modes {
		if t.ComputeTiming(m).Skew(t) > kappa+1e-9 {
			return false
		}
	}
	return true
}

// String renders a short timing summary.
func (tm *Timing) String() string {
	return fmt.Sprintf("timing{mode=%s, %d nodes}", tm.Mode.Name, len(tm.ATOut))
}
