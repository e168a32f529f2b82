package spice

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseSolve is the back-substitution lu.solve replaced: every product of
// the packed dense factors, zero or not, subtracted in column order. It is
// the oracle the sparse-row solve must match bit for bit.
func denseSolve(a [][]float64, perm []int, b, x []float64) {
	n := len(a)
	for i := 0; i < n; i++ {
		x[i] = b[perm[i]]
	}
	for i := 0; i < n; i++ {
		row := a[i]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := a[i]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// checkSolveBits factors m and compares lu.solve with denseSolve on the
// same packed factors (factor leaves them in m, rows pivoted) for the
// given right-hand sides, in Float64bits.
func checkSolveBits(t *testing.T, name string, m [][]float64, rhs [][]float64) {
	t.Helper()
	f, err := factor(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := len(m)
	want, got := make([]float64, n), make([]float64, n)
	for k, b := range rhs {
		denseSolve(m, f.perm, b, want)
		f.solve(b, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s rhs %d: x[%d] = %v (%#016x), dense %v (%#016x)",
					name, k, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// meshCircuit is internal/powergrid's two-rail grid: rows×cols VDD and
// ground meshes of segment resistance segRes with decap between the rails
// at every node, and an ideal pad behind a bump resistor every padEvery
// boundary nodes on both rails.
func meshCircuit(rows, cols, padEvery int, segRes, decap float64) *Circuit {
	c := NewCircuit()
	vdd := make([][]int, rows)
	gnd := make([][]int, rows)
	for r := range vdd {
		vdd[r], gnd[r] = make([]int, cols), make([]int, cols)
		for k := range vdd[r] {
			vdd[r][k] = c.Node(fmt.Sprintf("vdd_%d_%d", r, k))
			gnd[r][k] = c.Node(fmt.Sprintf("gnd_%d_%d", r, k))
		}
	}
	for r := 0; r < rows; r++ {
		for k := 0; k < cols; k++ {
			if k+1 < cols {
				c.R(vdd[r][k], vdd[r][k+1], segRes)
				c.R(gnd[r][k], gnd[r][k+1], segRes)
			}
			if r+1 < rows {
				c.R(vdd[r][k], vdd[r+1][k], segRes)
				c.R(gnd[r][k], gnd[r+1][k], segRes)
			}
			c.C(vdd[r][k], gnd[r][k], decap)
		}
	}
	for r := 0; r < rows; r++ {
		for k := 0; k < cols; k++ {
			if (r != 0 && k != 0 && r != rows-1 && k != cols-1) || (r+k)%padEvery != 0 {
				continue
			}
			vp := c.Node(fmt.Sprintf("vpad_%d_%d", r, k))
			c.V(vp, 1.1)
			c.R(vp, vdd[r][k], 1e-5)
			gp := c.Node(fmt.Sprintf("gpad_%d_%d", r, k))
			c.V(gp, 0)
			c.R(gp, gnd[r][k], 1e-5)
		}
	}
	return c
}

// randomRHS draws right-hand sides shaped like the transient's: mostly
// zero, a few injected currents, and the pad voltages in the source rows.
func randomRHS(rng *rand.Rand, n, count int) [][]float64 {
	out := make([][]float64, count)
	for k := range out {
		b := make([]float64, n)
		for i := range b {
			switch rng.Intn(4) {
			case 0:
				b[i] = rng.NormFloat64() * 5
			case 1:
				b[i] = 1.1
			}
		}
		out[k] = b
	}
	return out
}

// TestSolveMatchesDenseOnMeshes: on the DC and transient matrices of the
// ISCAS-style and ISPD-style grids, the sparse-row solve returns the
// dense solve's bits.
func TestSolveMatchesDenseOnMeshes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []struct {
		name             string
		rows, cols, pads int
		segRes, decap    float64
	}{
		{"iscas9x9", 9, 9, 4, 1e-4, 120},
		{"ispd6x6", 6, 6, 1, 2e-5, 300},
		{"iscas3x7", 3, 7, 4, 1e-4, 120},
	} {
		c := meshCircuit(g.rows, g.cols, g.pads, g.segRes, g.decap)
		dim := c.NumNodes() - 1 + len(c.vsources)
		for _, withCaps := range []bool{false, true} {
			m := newMatrix(dim)
			if err := c.stamp(m, withCaps, 0, 2); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/caps=%v", g.name, withCaps)
			checkSolveBits(t, name, m, randomRHS(rng, dim, 20))
		}
	}
}

// TestSolveMatchesDenseOnRandomSparse: seeded random matrices of varied
// size and density — exact zeros, mixed signs, pivoting, fill-in that can
// cancel — solve to the dense solve's bits.
func TestSolveMatchesDenseOnRandomSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		density := rng.Float64()
		m := newMatrix(n)
		for i := range m {
			for j := range m[i] {
				if rng.Float64() < density {
					// Small integers make exact cancellation during
					// elimination likely.
					m[i][j] = float64(rng.Intn(7) - 3)
					if rng.Intn(2) == 0 {
						m[i][j] = rng.NormFloat64()
					}
				}
			}
			m[i][i] += float64(n) * (1 + rng.Float64())
			if rng.Intn(5) == 0 {
				m[i][i] = -m[i][i]
			}
		}
		if rng.Intn(3) == 0 {
			// A permuted diagonal forces row pivoting.
			rng.Shuffle(n, func(a, b int) { m[a], m[b] = m[b], m[a] })
		}
		checkSolveBits(t, fmt.Sprintf("trial %d (n=%d)", trial, n), m, randomRHS(rng, n, 5))
	}
}
