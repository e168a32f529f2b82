package spice

import (
	"errors"
	"fmt"
	"math"
)

// lu is an LU factorization with partial pivoting. Transient analysis of a
// linear circuit with a fixed time step solves the same matrix every step,
// so we factor once and back-substitute per step.
//
// The factorization itself runs dense, but a mesh's factors stay mostly
// zero (the transient factor of a 9×9 two-rail grid is 23% nonzero), so
// factor keeps only the off-diagonal nonzeros, row by row in ascending
// column order, and solve walks just those. The loops subtract the same
// products in the same order as a dense sweep; a skipped term is
// s -= 0·x[j], so every finite result keeps its bits.
type lu struct {
	perm []int     // row permutation
	diag []float64 // U's diagonal
	// Row i's entries of L are col/val[off[2i]:off[2i+1]] and its entries
	// of U right of the diagonal are col/val[off[2i+1]:off[2i+2]].
	off []int32
	col []int32
	val []float64
}

// errSingular is returned when the system matrix cannot be factored; in
// circuit terms: a floating node or an inconsistent source loop.
var errSingular = errors.New("spice: singular matrix (floating node or source loop?)")

// factor computes the LU decomposition of a (which is overwritten).
func factor(a [][]float64) (*lu, error) {
	n := len(a)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, best := k, math.Abs(a[k][k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i][k]); v > best {
				p, best = i, v
			}
		}
		if best < 1e-18 {
			return nil, fmt.Errorf("%w: pivot %d", errSingular, k)
		}
		if p != k {
			a[p], a[k] = a[k], a[p]
			perm[p], perm[k] = perm[k], perm[p]
		}
		inv := 1 / a[k][k]
		for i := k + 1; i < n; i++ {
			f := a[i][k] * inv
			a[i][k] = f
			if f == 0 {
				continue
			}
			row, pivRow := a[i], a[k]
			for j := k + 1; j < n; j++ {
				row[j] -= f * pivRow[j]
			}
		}
	}
	return compress(a, perm), nil
}

// compress packs the factored matrix into exact-size sparse rows: one
// []int32 for the offsets and columns, one []float64 for the diagonal and
// the values.
func compress(a [][]float64, perm []int) *lu {
	n := len(a)
	nnz := 0
	for i, row := range a {
		for j, v := range row {
			if v != 0 && j != i {
				nnz++
			}
		}
	}
	ints := make([]int32, 2*n+1+nnz)
	floats := make([]float64, n+nnz)
	f := &lu{perm: perm, diag: floats[:n], off: ints[:2*n+1], col: ints[2*n+1:], val: floats[n:]}
	k := int32(0)
	for i, row := range a {
		for j, v := range row {
			if j == i {
				f.off[2*i+1] = k
				f.diag[i] = v
			} else if v != 0 {
				f.col[k], f.val[k] = int32(j), v
				k++
			}
		}
		f.off[2*i+2] = k
	}
	return f
}

// solve computes x such that A·x = b, writing into x (len n). b is not
// modified.
func (f *lu) solve(b, x []float64) {
	n := len(f.diag)
	// Apply permutation and forward-substitute L·y = P·b.
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	for i := 0; i < n; i++ {
		x[i] = f.rowDot(x[i], f.off[2*i], f.off[2*i+1], x)
	}
	// Back-substitute U·x = y.
	for i := n - 1; i >= 0; i-- {
		x[i] = f.rowDot(x[i], f.off[2*i+1], f.off[2*i+2], x) / f.diag[i]
	}
}

// rowDot returns s minus the stored entries [lo, hi) times x, subtracted
// in column order.
func (f *lu) rowDot(s float64, lo, hi int32, x []float64) float64 {
	cols, vals := f.col[lo:hi], f.val[lo:hi]
	vals = vals[:len(cols)]
	for k, j := range cols {
		s -= vals[k] * x[j]
	}
	return s
}

// newMatrix allocates an n×n zero matrix as row slices over one backing
// array.
func newMatrix(n int) [][]float64 {
	backing := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	return m
}
