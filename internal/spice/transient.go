package spice

import (
	"context"
	"fmt"

	"wavemin/internal/waveform"
)

// gmin is a tiny conductance added from every node to ground so that nodes
// connected only through capacitors still have a defined DC operating
// point. Standard SPICE practice.
const gmin = 1e-9 // mS

// Transient simulates the circuit from t0 to t1 with a fixed step dt (ps)
// using trapezoidal integration and records every node voltage and every
// voltage-source current at every step. The initial condition is the DC
// operating point at t0 (capacitors open, sources evaluated at t0). The
// context is checked every time step, so long transients cancel promptly.
func (c *Circuit) Transient(ctx context.Context, t0, t1, dt float64) (*Result, error) {
	steps, err := c.steps(t0, t1, dt)
	if err != nil {
		return nil, err
	}
	nn, nv := len(c.names), len(c.vsources)
	res := &Result{
		Times:   make([]float64, steps),
		nodes:   nn,
		sources: nv,
		v:       make([]float64, steps*nn),
		isrcV:   make([]float64, steps*nv),
	}
	err = c.integrate(ctx, t0, dt, steps, func(k int, t float64, sol []float64) {
		res.Times[k] = t
		// Column 0 is ground and stays 0.
		copy(res.v[k*nn+1:(k+1)*nn], sol[:nn-1])
		br := res.isrcV[k*nv : (k+1)*nv]
		for i := range br {
			// Branch unknown is current flowing out of the node into the
			// source; the supply *delivers* the negative of that.
			br[i] = -sol[(nn-1)+i]
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// MaxDeviations runs the transient Transient runs and returns, for every
// node, the largest |V(node) − ref[node]| over the run in volts: the
// values Result.MaxDeviation reports, bit for bit, without recording a
// table of every node at every step. ref holds one voltage per node,
// ground included.
func (c *Circuit) MaxDeviations(ctx context.Context, t0, t1, dt float64, ref []float64) ([]float64, error) {
	steps, err := c.steps(t0, t1, dt)
	if err != nil {
		return nil, err
	}
	nn := len(c.names)
	if len(ref) != nn {
		return nil, fmt.Errorf("spice: %d reference voltages for %d nodes", len(ref), nn)
	}
	worst := make([]float64, nn)
	err = c.integrate(ctx, t0, dt, steps, func(_ int, _ float64, sol []float64) {
		for node := range worst {
			v := 0.0 // ground
			if node != Ground {
				v = sol[node-1]
			}
			d := v - ref[node]
			if d < 0 {
				d = -d
			}
			if d > worst[node] {
				worst[node] = d
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return worst, nil
}

// steps validates a time window and returns the number of time points a
// transient over it visits, t0 included.
func (c *Circuit) steps(t0, t1, dt float64) (int, error) {
	if dt <= 0 || t1 <= t0 {
		return 0, fmt.Errorf("spice: bad time window [%g,%g] dt=%g", t0, t1, dt)
	}
	if len(c.names)-1+len(c.vsources) == 0 {
		return 0, fmt.Errorf("spice: empty circuit")
	}
	return int((t1-t0)/dt+0.5) + 1, nil
}

// integrate is the one trapezoidal integration loop: it solves the DC
// operating point at t0 and then steps times t0 + k·dt for k < steps,
// handing visit each step's solution — node voltages of nodes 1.. in
// volts, then voltage-source branch currents in mA. visit must not keep
// sol, which the next step overwrites.
func (c *Circuit) integrate(ctx context.Context, t0, dt float64, steps int, visit func(k int, t float64, sol []float64)) error {
	nn := len(c.names) // includes ground
	nv := len(c.vsources)
	dim := (nn - 1) + nv // unknowns: node voltages (minus ground) + branch currents

	// idx maps a node number to its matrix row, -1 for ground.
	idx := func(node int) int { return node - 1 }

	// Every factorization starts from a freshly stamped copy of this one
	// matrix; factor leaves nothing in it that it still needs.
	m := newMatrix(dim)

	// DC operating point: caps open, switches at their t0 state.
	if err := c.stamp(m, false, t0, dt); err != nil {
		return err
	}
	luDC, err := factor(m)
	if err != nil {
		return fmt.Errorf("spice: DC solve: %w", err)
	}
	rhs := make([]float64, dim)
	x := make([]float64, dim)
	// Source times are queried in ascending order (t0, then each step),
	// so cursors replace per-step binary searches; Cursor.At is
	// bit-identical to Waveform.At for nondecreasing times.
	srcCur := make([]waveform.Cursor, len(c.isources))
	for i, is := range c.isources {
		srcCur[i] = is.w.Cursor()
	}
	fillSources := func(t float64) {
		for i := range rhs {
			rhs[i] = 0
		}
		for i, is := range c.isources {
			cur := srcCur[i].At(t) / 1000 // µA → mA
			if is.from != Ground {
				rhs[idx(is.from)] -= cur
			}
			if is.to != Ground {
				rhs[idx(is.to)] += cur
			}
		}
		for k, vs := range c.vsources {
			rhs[(nn-1)+k] = vs.v
		}
	}
	fillSources(t0)
	luDC.solve(rhs, x)

	// Capacitor state: branch voltage and branch current at current step.
	vc := make([]float64, len(c.caps))
	ic := make([]float64, len(c.caps))
	volt := func(sol []float64, node int) float64 {
		if node == Ground {
			return 0
		}
		return sol[idx(node)]
	}
	for i, cp := range c.caps {
		vc[i] = volt(x, cp.a) - volt(x, cp.b)
		ic[i] = 0 // DC: no current through caps
	}

	// Transient matrix: caps as trapezoidal companions. With switched
	// elements the matrix is time-dependent and re-factored per step;
	// otherwise one factorization serves the whole run.
	timeVarying := len(c.switched) > 0
	var luTR *lu
	if !timeVarying {
		if err := c.stamp(m, true, t0, dt); err != nil {
			return err
		}
		luTR, err = factor(m)
		if err != nil {
			return fmt.Errorf("spice: transient factor: %w", err)
		}
	}

	visit(0, t0, x)
	xNext := make([]float64, dim)
	for k := 1; k < steps; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := t0 + float64(k)*dt
		if timeVarying {
			if err := c.stamp(m, true, t, dt); err != nil {
				return err
			}
			luTR, err = factor(m)
			if err != nil {
				return fmt.Errorf("spice: transient factor at t=%g: %w", t, err)
			}
		}
		fillSources(t)
		for i, cp := range c.caps {
			geq := 2 * cp.c / dt
			ieq := geq*vc[i] + ic[i]
			// Companion current source pushes ieq from b to a.
			if cp.a != Ground {
				rhs[idx(cp.a)] += ieq
			}
			if cp.b != Ground {
				rhs[idx(cp.b)] -= ieq
			}
		}
		luTR.solve(rhs, xNext)
		// Update capacitor states.
		for i, cp := range c.caps {
			geq := 2 * cp.c / dt
			newVc := volt(xNext, cp.a) - volt(xNext, cp.b)
			newIc := geq*(newVc-vc[i]) - ic[i]
			vc[i], ic[i] = newVc, newIc
		}
		visit(k, t, xNext)
		x, xNext = xNext, x
	}
	return nil
}

// stamp writes the circuit's MNA matrix at time t into m, which it clears
// first: gmin from every node to ground, the resistors, the switched
// conductances at their value at t, the capacitors' trapezoidal
// companions for step dt when withCaps (open otherwise), and the
// voltage-source rows.
func (c *Circuit) stamp(m [][]float64, withCaps bool, t, dt float64) error {
	for _, row := range m {
		clear(row)
	}
	nn := len(c.names)
	for i := 0; i < nn-1; i++ {
		m[i][i] += gmin
	}
	for _, r := range c.resistors {
		stampG(m, r.a, r.b, r.g)
	}
	for _, sw := range c.switched {
		g := sw.g.At(t)
		if g < gmin {
			g = gmin
		}
		stampG(m, sw.a, sw.b, g)
	}
	if withCaps {
		for _, cp := range c.caps {
			stampG(m, cp.a, cp.b, 2*cp.c/dt)
		}
	}
	for k, vs := range c.vsources {
		row := (nn - 1) + k
		if vs.node == Ground {
			return fmt.Errorf("spice: voltage source %d on ground", k)
		}
		m[vs.node-1][row] += 1 // branch current leaves the node
		m[row][vs.node-1] += 1 // v_node = V
	}
	return nil
}

// stampG adds conductance g between nodes a and b. Node k's row is k−1;
// ground has none.
func stampG(m [][]float64, a, b int, g float64) {
	if a != Ground {
		m[a-1][a-1] += g
	}
	if b != Ground {
		m[b-1][b-1] += g
	}
	if a != Ground && b != Ground {
		m[a-1][b-1] -= g
		m[b-1][a-1] -= g
	}
}
