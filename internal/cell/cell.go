// Package cell models the clock buffering elements of the WaveMin flow: the
// buffer library B, the inverter library I, and the delay-adjustable cells
// (ADB and the paper's proposed ADI).
//
// The paper characterizes cells with HSPICE on the Nangate 45 nm library
// (Fig. 7): apply a clock pulse, record the IDD/ISS supply-current
// waveforms, the propagation delay T_D, and the output slew, at each supply
// voltage of interest. We substitute an analytic behavioural model with the
// same observable surface — load- and VDD-dependent delay and slew, and
// triangular supply-current pulses whose areas equal the switched charge —
// calibrated to the magnitudes of the paper's Tables I–III. The exact
// worked-example numbers of Tables II/III are available separately via
// PaperLibrary for unit tests of the algorithm mechanics.
//
// Conventions: time ps, capacitance fF, resistance kΩ (so R·C is ps),
// current µA (I = 1000·C·V/t with C in fF, V in volts, t in ps).
package cell

import (
	"fmt"
	"math"

	"wavemin/internal/waveform"
)

// Kind classifies a buffering element.
type Kind int

const (
	// Buf is a plain clock buffer: non-inverting, positive polarity.
	Buf Kind = iota
	// Inv is a clock inverter: inverting, negative polarity.
	Inv
	// ADB is an adjustable delay buffer: non-inverting, per-mode delay steps.
	ADB
	// ADI is an adjustable delay inverter (the paper's new cell, Fig. 4):
	// inverting, per-mode delay steps, longer base delay than ADB because of
	// its extra inverter stage.
	ADI
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Buf:
		return "BUF"
	case Inv:
		return "INV"
	case ADB:
		return "ADB"
	case ADI:
		return "ADI"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Edge is a clock transition direction at a cell input.
type Edge int

const (
	Rising Edge = iota
	Falling
)

// String implements fmt.Stringer.
func (e Edge) String() string {
	if e == Rising {
		return "rise"
	}
	return "fall"
}

// Opposite returns the other edge. An inverting cell presents the opposite
// edge to its fanout.
func (e Edge) Opposite() Edge {
	if e == Rising {
		return Falling
	}
	return Rising
}

// Cell describes one library element type. Cells are immutable after
// construction; per-instance state (e.g. an ADB's per-mode delay setting)
// lives on the clock tree node that instantiates the cell.
type Cell struct {
	Name  string
	Kind  Kind
	Drive float64 // drive strength multiplier (the X in BUF_X4)

	// Analytic model parameters. When Table is non-nil these are ignored
	// for delay/peak queries at the characterized points.
	CinPerX   float64 // input capacitance per unit drive, fF
	RoutUnit  float64 // unit-drive output resistance, kΩ
	CparPerX  float64 // output parasitic capacitance per unit drive, fF
	Intrinsic float64 // intrinsic (unloaded) delay at VDDRef, ps
	CrowbarFr float64 // short-circuit current fraction on the quiet rail

	// Delay-adjustable cells only.
	StepPs   float64 // delay increment per capacitor-bank step, ps
	MaxSteps int     // number of capacitor-bank steps

	// Table, when non-nil, pins characterization to fixed values (the
	// paper's Tables II/III worked examples) instead of the analytic model.
	Table map[float64]TablePoint // keyed by VDD
}

// TablePoint is a fixed characterization row: propagation delay and the
// IDD peaks at the rising (P+) and falling (P−) input edges, exactly as in
// the paper's Tables II and III.
type TablePoint struct {
	TD    float64 // ps
	PPlus float64 // µA, peak IDD at rising input edge
	PMin  float64 // µA, peak IDD at falling input edge
}

// VDDRef is the nominal supply the analytic model is calibrated at, volts.
const VDDRef = 1.1

// Inverting reports whether the cell flips polarity.
func (c *Cell) Inverting() bool { return c.Kind == Inv || c.Kind == ADI }

// Adjustable reports whether the cell has a capacitor-bank delay line.
func (c *Cell) Adjustable() bool { return c.Kind == ADB || c.Kind == ADI }

// MaxAdjust returns the largest extra delay the cell's capacitor bank can
// add, in ps. Zero for non-adjustable cells.
func (c *Cell) MaxAdjust() float64 { return float64(c.MaxSteps) * c.StepPs }

// InputCap returns the input capacitance in fF.
func (c *Cell) InputCap() float64 { return c.CinPerX * c.Drive }

// OutputRes returns the output resistance in kΩ.
func (c *Cell) OutputRes() float64 { return c.RoutUnit / c.Drive }

// vddDelayFactor scales delay with supply voltage: lower VDD, slower cell.
// Calibrated so 1.1 V → 0.9 V slows a cell by ≈12–13 %, matching the ratio
// between the paper's Tables II and III.
func vddDelayFactor(vdd float64) float64 {
	return math.Pow(VDDRef/vdd, 0.6)
}

// vddCurrentFactor scales peak currents with supply voltage: lower VDD,
// lower peaks (Table III vs Table II: ≈8 % down at 0.9 V).
func vddCurrentFactor(vdd float64) float64 {
	return math.Pow(vdd/VDDRef, 0.4)
}

// Delay returns the propagation delay in ps when driving load fF at the
// given supply. Adjustable cells report their base delay; add the bank
// setting separately. For Table-pinned cells the characterized T_D at the
// exact VDD is returned when available (load-independent, as in the paper's
// worked examples).
func (c *Cell) Delay(load, vdd float64) float64 {
	if c.Table != nil {
		if tp, ok := c.Table[vdd]; ok {
			return tp.TD
		}
	}
	d := c.Intrinsic + 0.69*c.OutputRes()*(load+c.CparPerX*c.Drive)
	if c.Kind == Buf || c.Kind == ADB {
		// First (quarter-sized) stage driving the output stage's input.
		s1 := math.Max(1, c.Drive/4)
		d += 0.69 * (c.RoutUnit / s1) * (c.CinPerX*c.Drive + c.CparPerX*s1)
	}
	if c.Kind == ADI {
		// Two extra minimum-size inverter stages around the capacitor bank
		// (Fig. 4) make ADIs slower than ADBs; this is why feasibility
		// pruning removes most ADIs in the paper's Table VII.
		d += 2 * (c.Intrinsic + 0.69*c.RoutUnit*c.CparPerX)
	}
	return d * vddDelayFactor(vdd)
}

// Slew returns the 20 %–80 % output transition time in ps for the given
// load and supply.
func (c *Cell) Slew(load, vdd float64) float64 {
	// ln(0.8/0.2) · R · C for a single-pole response.
	return 1.386 * c.OutputRes() * (load + c.CparPerX*c.Drive) * vddDelayFactor(vdd)
}

// switchedCharge returns the charge in µA·ps moved through the output stage
// when the output toggles: Q = C·V (1 fF·V = 1000 µA·ps).
func (c *Cell) switchedCharge(load, vdd float64) float64 {
	return 1000 * (load + c.CparPerX*c.Drive) * vdd
}

// Pull-up (PMOS) networks are weaker than pull-down (NMOS) at equal
// drawn width, so a rising output draws a wider, flatter IDD pulse than
// the ISS pulse of a falling output — the source of the IDD/ISS peak
// asymmetry visible in the paper's Table I and of Gnd noise exceeding
// VDD noise on most Table V rows.
const (
	pullUpWiden    = 1.18
	pullDownNarrow = 0.88
)

func edgeWidthFactor(outputRises bool) float64 {
	if outputRises {
		return pullUpWiden
	}
	return pullDownNarrow
}

// pulseWidth returns the duration of the output-stage current pulse, ps,
// for the given switching direction.
func (c *Cell) pulseWidth(load, vdd float64, outputRises bool) float64 {
	w := 2.2 * c.OutputRes() * (load + c.CparPerX*c.Drive) * vddDelayFactor(vdd) * edgeWidthFactor(outputRises)
	const minWidth = 2.0 // ps; even an unloaded stage draws over a finite window
	if w < minWidth {
		return minWidth
	}
	return w
}

// peakMain returns the peak of the main (output-stage) current pulse, µA.
// The triangle with area Q and width w peaks at 2Q/w; the 0.8 shape factor
// accounts for the rounded tails of a real pulse.
func (c *Cell) peakMain(load, vdd float64, outputRises bool) float64 {
	q := c.switchedCharge(load, vdd)
	w := c.pulseWidth(load, vdd, outputRises)
	return 0.8 * 2 * q / w * vddCurrentFactor(vdd)
}

// PeakPlus returns P+: the peak IDD drawn at a *rising* input edge, µA.
// Non-inverting cells charge their output at the rising edge, so P+ is the
// big pulse; inverting cells only draw crowbar current then.
func (c *Cell) PeakPlus(load, vdd float64) float64 {
	if c.Table != nil {
		if tp, ok := c.Table[vdd]; ok {
			return tp.PPlus
		}
	}
	if c.Inverting() {
		// Output falls at the rising edge; IDD sees the crowbar of the
		// pull-down event.
		return c.peakMain(load, vdd, false) * c.CrowbarFr
	}
	return c.peakMain(load, vdd, true)
}

// PeakMinus returns P−: the peak IDD drawn at a *falling* input edge, µA.
func (c *Cell) PeakMinus(load, vdd float64) float64 {
	if c.Table != nil {
		if tp, ok := c.Table[vdd]; ok {
			return tp.PMin
		}
	}
	if c.Inverting() {
		return c.peakMain(load, vdd, true) // output rises: pull-up IDD pulse
	}
	return c.peakMain(load, vdd, false) * c.CrowbarFr
}

// outputRises reports whether the output switches low→high for the given
// input edge.
func (c *Cell) outputRises(e Edge) bool {
	if c.Inverting() {
		return e == Falling
	}
	return e == Rising
}

// Pulse is one triangular supply-current pulse: it starts at T0, rises
// linearly to Peak over Rise, and decays linearly to zero over Fall (ps,
// µA) — the behavioural stand-in for one CMOS stage's supply spike.
type Pulse struct{ T0, Rise, Fall, Peak float64 }

// Pulses returns the triangular pulses a cell draws from the VDD (idd) and
// Gnd (iss) rails when the given input edge arrives at t = 0, for the
// given load, supply, and input slew: n pulses per rail, n being 1 or 2
// and depending only on the cell and the supply, never on the edge.
// This is the one pulse model of the package — Currents draws exactly
// these triangles, and a whole-tree peak can sweep them without building
// any waveform.
//
// Shape: the output stage contributes a triangle of area Q = C·VDD on the
// rail it switches through (IDD when the output rises, ISS when it falls),
// peaking near the propagation delay. The opposite rail sees a crowbar
// triangle of CrowbarFr the height. Two-stage cells (BUF/ADB) additionally
// put their first-stage pulse — which switches the *opposite* way — on the
// other rail at roughly half the delay, with its crowbar on the first
// rail. Input slew widens the pulses.
func (c *Cell) Pulses(e Edge, load, vdd, slewIn float64) (idd, iss [2]Pulse, n int) {
	if c.Table != nil {
		if tp, ok := c.Table[vdd]; ok {
			// Table-pinned cell: single triangles with exactly the
			// characterized peaks. ISS mirrors IDD across edges (rail
			// symmetry; the paper omits ISS peaks "for brevity").
			d := tp.TD
			w := c.pulseWidth(load, vdd, c.outputRises(e)) + 0.3*slewIn
			rise, fall := 0.4*w, 0.6*w
			start := d - rise
			iddPeak, issPeak := tp.PPlus, tp.PMin
			if e == Falling {
				iddPeak, issPeak = tp.PMin, tp.PPlus
			}
			idd[0] = Pulse{T0: start, Rise: rise, Fall: fall, Peak: iddPeak}
			iss[0] = Pulse{T0: start, Rise: rise, Fall: fall, Peak: issPeak}
			return idd, iss, 1
		}
	}
	outRises := c.outputRises(e)
	d := c.Delay(load, vdd)
	w := c.pulseWidth(load, vdd, outRises) + 0.3*slewIn
	peak := 0.8 * 2 * c.switchedCharge(load, vdd) / w * vddCurrentFactor(vdd)
	rise, fall := 0.4*w, 0.6*w
	start := d - rise
	main := Pulse{T0: start, Rise: rise, Fall: fall, Peak: peak}
	crow := Pulse{T0: start, Rise: rise, Fall: fall, Peak: peak * c.CrowbarFr}
	if outRises {
		idd[0], iss[0] = main, crow
	} else {
		idd[0], iss[0] = crow, main
	}
	if c.Kind != Buf && c.Kind != ADB {
		return idd, iss, 1
	}
	// First stage: drives the output stage's input cap the opposite way
	// (its own pull-up/pull-down asymmetry included).
	s1 := math.Max(1, c.Drive/4)
	q1 := 1000 * (c.CinPerX*c.Drive + c.CparPerX*s1) * vdd
	w1 := math.Max(2.0, 2.2*(c.RoutUnit/s1)*(c.CinPerX*c.Drive+c.CparPerX*s1)*vddDelayFactor(vdd)*edgeWidthFactor(e == Falling)) + 0.3*slewIn
	p1 := 0.8 * 2 * q1 / w1 * vddCurrentFactor(vdd)
	st1 := Pulse{T0: math.Max(0, d/2-0.4*w1), Rise: 0.4 * w1, Fall: 0.6 * w1, Peak: p1}
	st1crow := st1
	st1crow.Peak = p1 * c.CrowbarFr
	// Rising input → stage-1 output falls → stage-1 draws ISS.
	if e == Rising {
		idd[1], iss[1] = st1crow, st1
	} else {
		idd[1], iss[1] = st1, st1crow
	}
	return idd, iss, 2
}

// Currents returns the IDD and ISS waveforms drawn from the VDD and Gnd
// rails when the given input edge arrives at t = 0, for the given load,
// supply, and input slew: the Pulses triangles, superposed per rail. This
// is the behavioural equivalent of the paper's Fig. 7 characterization
// pulse.
func (c *Cell) Currents(e Edge, load, vdd, slewIn float64) (idd, iss waveform.Waveform) {
	ip, sp, n := c.Pulses(e, load, vdd, slewIn)
	tri := func(p Pulse) waveform.Waveform { return waveform.Triangle(p.T0, p.Rise, p.Fall, p.Peak) }
	idd, iss = tri(ip[0]), tri(sp[0])
	if n == 2 {
		idd = waveform.Add(idd, tri(ip[1]))
		iss = waveform.Add(iss, tri(sp[1]))
	}
	return idd, iss
}

// Validate performs basic sanity checks on the model parameters.
func (c *Cell) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("cell: empty name")
	case c.Drive <= 0:
		return fmt.Errorf("cell %s: non-positive drive %g", c.Name, c.Drive)
	case c.Table == nil && (c.CinPerX <= 0 || c.RoutUnit <= 0 || c.CparPerX < 0):
		return fmt.Errorf("cell %s: bad analytic parameters", c.Name)
	case c.Adjustable() && (c.StepPs <= 0 || c.MaxSteps <= 0):
		return fmt.Errorf("cell %s: adjustable cell needs positive StepPs and MaxSteps", c.Name)
	case !c.Adjustable() && (c.StepPs != 0 || c.MaxSteps != 0):
		return fmt.Errorf("cell %s: non-adjustable cell must not define delay steps", c.Name)
	}
	return nil
}

// String implements fmt.Stringer.
func (c *Cell) String() string { return c.Name }
