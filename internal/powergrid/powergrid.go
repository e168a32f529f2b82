// Package powergrid models the on-chip power and ground distribution
// network as two regular RC meshes (after the grid model of Zhu, "Power
// Distribution Network Design for VLSI", the paper's reference [36]) and
// measures the voltage fluctuation caused by clock-tree switching currents
// — the paper's "VDD noise" and "Gnd noise" columns.
//
// Every clock buffering element injects its IDD pulse as a draw from the
// nearest VDD-mesh node and its ISS pulse as a push into the nearest
// ground-mesh node; pads (ideal supplies) sit on the mesh boundary; each
// mesh node carries decoupling capacitance. The transient solve is done by
// internal/spice.
package powergrid

import (
	"context"
	"fmt"
	"math"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/faultinject"
	"wavemin/internal/spice"
	"wavemin/internal/waveform"
)

// Options configures the mesh.
type Options struct {
	Pitch    float64 // mesh pitch, µm
	SegRes   float64 // resistance of one mesh segment, kΩ
	Decap    float64 // decoupling capacitance per mesh node, fF
	PadEvery int     // a pad every k boundary nodes (1 = every boundary node)
	VDD      float64 // nominal supply, V
}

// DefaultOptions is the ISCAS'89-style grid: corner-ish pads and a fairly
// resistive mesh, giving mV-scale noise for mA-scale clock currents.
func DefaultOptions() Options {
	return Options{Pitch: 50, SegRes: 1e-4 /* 0.1 Ω */, Decap: 120, PadEvery: 4, VDD: clocktree.NominalVDD}
}

// DenseOptions is the ISPD'09-style grid: pads on every boundary node and
// lower segment resistance; the same currents produce ~10× less noise,
// reproducing the contrast between the ISCAS and ISPD rows of Table V.
func DenseOptions() Options {
	return Options{Pitch: 50, SegRes: 2e-5 /* 0.02 Ω */, Decap: 300, PadEvery: 1, VDD: clocktree.NominalVDD}
}

// Injection is one switching element's current draw at a die location.
type Injection struct {
	X, Y float64           // µm
	IDD  waveform.Waveform // µA drawn from the VDD rail
	ISS  waveform.Waveform // µA pushed into the ground rail
}

// Grid is a built pair of rail meshes over a die.
type Grid struct {
	opt        Options
	cols, rows int
	dieW, dieH float64
}

// New builds a grid covering a dieW×dieH µm die.
func New(dieW, dieH float64, opt Options) (*Grid, error) {
	if dieW <= 0 || dieH <= 0 {
		return nil, fmt.Errorf("powergrid: bad die %gx%g", dieW, dieH)
	}
	if opt.Pitch <= 0 || opt.SegRes <= 0 || opt.PadEvery < 1 {
		return nil, fmt.Errorf("powergrid: bad options %+v", opt)
	}
	cols := int(math.Ceil(dieW/opt.Pitch)) + 1
	rows := int(math.Ceil(dieH/opt.Pitch)) + 1
	if cols < 2 {
		cols = 2
	}
	if rows < 2 {
		rows = 2
	}
	return &Grid{opt: opt, cols: cols, rows: rows, dieW: dieW, dieH: dieH}, nil
}

// NodeCount reports mesh nodes per rail.
func (g *Grid) NodeCount() int { return g.cols * g.rows }

// nearestNode maps a die location to mesh coordinates.
func (g *Grid) nearestNode(x, y float64) (int, int) {
	cx := int(x/g.opt.Pitch + 0.5)
	cy := int(y/g.opt.Pitch + 0.5)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

// Report is the outcome of a grid noise simulation.
type Report struct {
	VDDNoise float64 // max |V − VDD| over the VDD mesh, volts
	GndNoise float64 // max |V| over the ground mesh, volts
}

// Simulate runs a transient of both meshes with the given injections over
// [t0, t1] at step dt (ps) and reports the worst rail deviations. The
// context bounds the underlying transient solve.
func (g *Grid) Simulate(ctx context.Context, inj []Injection, t0, t1, dt float64) (*Report, error) {
	faultinject.At(faultinject.SitePowergridSim)
	ckt := spice.NewCircuit()
	vddNode := make([][]int, g.rows)
	gndNode := make([][]int, g.rows)
	for r := 0; r < g.rows; r++ {
		vddNode[r] = make([]int, g.cols)
		gndNode[r] = make([]int, g.cols)
		for c := 0; c < g.cols; c++ {
			vddNode[r][c] = ckt.Node(fmt.Sprintf("vdd_%d_%d", r, c))
			gndNode[r][c] = ckt.Node(fmt.Sprintf("gnd_%d_%d", r, c))
		}
	}
	// Mesh segments.
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			if c+1 < g.cols {
				ckt.R(vddNode[r][c], vddNode[r][c+1], g.opt.SegRes)
				ckt.R(gndNode[r][c], gndNode[r][c+1], g.opt.SegRes)
			}
			if r+1 < g.rows {
				ckt.R(vddNode[r][c], vddNode[r+1][c], g.opt.SegRes)
				ckt.R(gndNode[r][c], gndNode[r+1][c], g.opt.SegRes)
			}
			if g.opt.Decap > 0 {
				ckt.C(vddNode[r][c], gndNode[r][c], g.opt.Decap)
			}
		}
	}
	// Pads along the boundary every PadEvery nodes. A pad is an ideal
	// supply behind a small bump resistance.
	const bumpRes = 1e-5 // 0.01 Ω
	pads := 0
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			onBoundary := r == 0 || c == 0 || r == g.rows-1 || c == g.cols-1
			if !onBoundary || (r+c)%g.opt.PadEvery != 0 {
				continue
			}
			vp := ckt.Node(fmt.Sprintf("vpad_%d_%d", r, c))
			ckt.V(vp, g.opt.VDD)
			ckt.R(vp, vddNode[r][c], bumpRes)
			gp := ckt.Node(fmt.Sprintf("gpad_%d_%d", r, c))
			ckt.V(gp, 0)
			ckt.R(gp, gndNode[r][c], bumpRes)
			pads++
		}
	}
	if pads == 0 {
		return nil, fmt.Errorf("powergrid: no pads placed (PadEvery too large?)")
	}
	// Injections.
	for _, in := range inj {
		cx, cy := g.nearestNode(in.X, in.Y)
		if !in.IDD.IsZero() {
			ckt.I(vddNode[cy][cx], spice.Ground, in.IDD)
		}
		if !in.ISS.IsZero() {
			ckt.I(spice.Ground, gndNode[cy][cx], in.ISS)
		}
	}
	res, err := ckt.Transient(ctx, t0, t1, dt)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			if d := res.MaxDeviation(vddNode[r][c], g.opt.VDD); d > rep.VDDNoise {
				rep.VDDNoise = d
			}
			if d := res.MaxDeviation(gndNode[r][c], 0); d > rep.GndNoise {
				rep.GndNoise = d
			}
		}
	}
	return rep, nil
}

// TreeInjections extracts one Injection per clock-tree node for the given
// source edge: each buffering element's characterized IDD/ISS pulses,
// shifted to its switching time, at its placement.
func TreeInjections(t *clocktree.Tree, tm *clocktree.Timing, e cell.Edge) []Injection {
	out := make([]Injection, 0, t.Len())
	t.Walk(func(n *clocktree.Node) {
		idd, iss := t.NodeCurrents(tm, n.ID, e)
		out = append(out, Injection{X: n.X, Y: n.Y, IDD: idd, ISS: iss})
	})
	return out
}

// MeasureTreeNoise simulates both clock edges of the tree against the grid
// and returns the worse VDD and Gnd deviations (volts). The simulation
// window covers all injection activity plus settle time.
func (g *Grid) MeasureTreeNoise(ctx context.Context, t *clocktree.Tree, tm *clocktree.Timing) (vddNoise, gndNoise float64, err error) {
	for _, e := range []cell.Edge{cell.Rising, cell.Falling} {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		inj := TreeInjections(t, tm, e)
		t1 := 0.0
		for _, in := range inj {
			t1 = math.Max(t1, math.Max(in.IDD.Last(), in.ISS.Last()))
		}
		rep, simErr := g.Simulate(ctx, inj, 0, t1+100, 2)
		if simErr != nil {
			return 0, 0, simErr
		}
		vddNoise = math.Max(vddNoise, rep.VDDNoise)
		gndNoise = math.Max(gndNoise, rep.GndNoise)
	}
	return vddNoise, gndNoise, nil
}
