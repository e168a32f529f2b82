// Package waveform provides piecewise-linear current waveforms and the
// sampling machinery used throughout the WaveMin flow.
//
// A Waveform is a piecewise-linear (PWL) function of time, the same
// representation circuit simulators use for transient sources and the
// representation the paper's characterization step produces (Fig. 7):
// a handful of (time, current) samples near the clock edges, linearly
// interpolated in between and zero outside the sampled span.
//
// Units follow the rest of the module: time in picoseconds (ps), current
// in microamperes (µA). Nothing in this package enforces the units; they
// are a convention shared with internal/cell and internal/spice.
package waveform

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is a single PWL sample.
type Point struct {
	T float64 // time, ps
	I float64 // current, µA
}

// Waveform is a piecewise-linear function of time. The zero value is the
// identically-zero waveform. Points are kept sorted by time with strictly
// increasing T. Outside [First, Last] the waveform evaluates to zero, so a
// waveform whose edge samples are nonzero has an implicit step there;
// constructors in this package always emit zero-valued end points to avoid
// that.
type Waveform struct {
	pts []Point
}

// New builds a waveform from the given samples. Samples are sorted by time.
// Duplicate times are rejected because they would make interpolation
// ambiguous.
func New(pts []Point) (Waveform, error) {
	cp := make([]Point, len(pts))
	copy(cp, pts)
	sort.Slice(cp, func(i, j int) bool { return cp[i].T < cp[j].T })
	for i := 1; i < len(cp); i++ {
		if cp[i].T == cp[i-1].T {
			return Waveform{}, fmt.Errorf("waveform: duplicate sample time %g", cp[i].T)
		}
	}
	for _, p := range cp {
		if math.IsNaN(p.T) || math.IsInf(p.T, 0) || math.IsNaN(p.I) || math.IsInf(p.I, 0) {
			return Waveform{}, errors.New("waveform: non-finite sample")
		}
	}
	return Waveform{pts: cp}, nil
}

// MustNew is New but panics on error; for literals in tests and tables.
func MustNew(pts []Point) Waveform {
	w, err := New(pts)
	if err != nil {
		panic(err)
	}
	return w
}

// Triangle returns an asymmetric triangular pulse that starts at t0, rises
// linearly to peak at t0+rise, and decays linearly to zero at t0+rise+fall.
// Triangular pulses are the behavioural stand-in for a CMOS stage's supply
// current spike: the area equals the delivered charge and the peak equals
// the paper's P+/P− characterization value.
func Triangle(t0, rise, fall, peak float64) Waveform {
	if rise <= 0 || fall <= 0 {
		panic(fmt.Sprintf("waveform: non-positive triangle edges rise=%g fall=%g", rise, fall))
	}
	return Waveform{pts: []Point{
		{T: t0, I: 0},
		{T: t0 + rise, I: peak},
		{T: t0 + rise + fall, I: 0},
	}}
}

// Points returns a copy of the waveform's samples.
func (w Waveform) Points() []Point {
	cp := make([]Point, len(w.pts))
	copy(cp, w.pts)
	return cp
}

// Len reports the number of PWL samples.
func (w Waveform) Len() int { return len(w.pts) }

// IsZero reports whether the waveform has no samples (identically zero).
func (w Waveform) IsZero() bool { return len(w.pts) == 0 }

// First returns the time of the first sample; zero waveforms return 0.
func (w Waveform) First() float64 {
	if len(w.pts) == 0 {
		return 0
	}
	return w.pts[0].T
}

// Last returns the time of the last sample; zero waveforms return 0.
func (w Waveform) Last() float64 {
	if len(w.pts) == 0 {
		return 0
	}
	return w.pts[len(w.pts)-1].T
}

// At evaluates the waveform at time t with linear interpolation. Times
// outside the sampled span evaluate to zero.
func (w Waveform) At(t float64) float64 {
	n := len(w.pts)
	if n == 0 || t < w.pts[0].T || t > w.pts[n-1].T {
		return 0
	}
	// Binary search for the segment containing t.
	k := sort.Search(n, func(i int) bool { return w.pts[i].T >= t })
	if k < n && w.pts[k].T == t {
		return w.pts[k].I
	}
	a, b := w.pts[k-1], w.pts[k]
	frac := (t - a.T) / (b.T - a.T)
	return a.I + frac*(b.I-a.I)
}

// Cursor evaluates a waveform at a nondecreasing sequence of times in
// amortized O(1) per query. It returns exactly the values At would —
// same boundary handling, same interpolation arithmetic — so replacing a
// loop of At calls with a Cursor is a bit-identical transformation as
// long as the query times never decrease.
type Cursor struct {
	pts []Point
	k   int // smallest index with pts[k].T >= the last queried time
}

// Cursor returns a cursor positioned before the first sample.
func (w Waveform) Cursor() Cursor { return Cursor{pts: w.pts} }

// At evaluates the waveform at t. Queries must be nondecreasing in t;
// earlier times silently evaluate as if clamped to the cursor position.
func (c *Cursor) At(t float64) float64 {
	n := len(c.pts)
	if n == 0 || t < c.pts[0].T || t > c.pts[n-1].T {
		return 0
	}
	for c.k < n && c.pts[c.k].T < t {
		c.k++
	}
	if c.k < n && c.pts[c.k].T == t {
		return c.pts[c.k].I
	}
	a, b := c.pts[c.k-1], c.pts[c.k]
	frac := (t - a.T) / (b.T - a.T)
	return a.I + frac*(b.I-a.I)
}

// Shift returns the waveform translated by dt along the time axis.
func (w Waveform) Shift(dt float64) Waveform {
	if len(w.pts) == 0 || dt == 0 {
		return w
	}
	pts := make([]Point, len(w.pts))
	for i, p := range w.pts {
		pts[i] = Point{T: p.T + dt, I: p.I}
	}
	return Waveform{pts: pts}
}

// Scale returns the waveform with every current multiplied by k.
func (w Waveform) Scale(k float64) Waveform {
	if len(w.pts) == 0 {
		return w
	}
	pts := make([]Point, len(w.pts))
	for i, p := range w.pts {
		pts[i] = Point{T: p.T, I: p.I * k}
	}
	return Waveform{pts: pts}
}

// Add superposes two waveforms. The result samples the union of both
// breakpoint sets, so it is exact for PWL inputs.
func Add(a, b Waveform) Waveform {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	times := mergeTimes(a, b)
	pts := make([]Point, len(times))
	for i, t := range times {
		pts[i] = Point{T: t, I: a.At(t) + b.At(t)}
	}
	return Waveform{pts: pts}
}

// Sum superposes any number of waveforms. Summing pairwise would be
// quadratic in breakpoints; Sum merges all breakpoint sets once.
func Sum(ws ...Waveform) Waveform {
	nonzero := make([]Waveform, 0, len(ws))
	for _, w := range ws {
		if !w.IsZero() {
			nonzero = append(nonzero, w)
		}
	}
	switch len(nonzero) {
	case 0:
		return Waveform{}
	case 1:
		return nonzero[0]
	}
	times := mergeTimes(nonzero...)
	// Merged times are ascending, so each term can be read through a
	// cursor instead of a fresh binary search per (waveform, time).
	curs := make([]Cursor, len(nonzero))
	for i, w := range nonzero {
		curs[i] = w.Cursor()
	}
	pts := make([]Point, len(times))
	for i, t := range times {
		var s float64
		for j := range curs {
			s += curs[j].At(t)
		}
		pts[i] = Point{T: t, I: s}
	}
	return Waveform{pts: pts}
}

// mergeTimes returns the sorted, deduplicated union of the waveforms'
// breakpoint times.
func mergeTimes(ws ...Waveform) []float64 {
	n := 0
	for _, w := range ws {
		n += len(w.pts)
	}
	times := make([]float64, 0, n)
	for _, w := range ws {
		for _, p := range w.pts {
			times = append(times, p.T)
		}
	}
	sort.Float64s(times)
	out := times[:0]
	for i, t := range times {
		if i == 0 || t != times[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// Peak returns the maximum current over all time and the time at which it
// occurs. For PWL waveforms the maximum is attained at a breakpoint.
func (w Waveform) Peak() (peak, at float64) {
	for _, p := range w.pts {
		if p.I > peak {
			peak, at = p.I, p.T
		}
	}
	return peak, at
}

// Charge integrates the waveform over all time (trapezoidal, exact for
// PWL). With µA and ps conventions the result is in femto-coulombs × 10⁻³
// (1 µA·ps = 10⁻¹⁸ C); callers only use it for relative comparisons.
func (w Waveform) Charge() float64 {
	var q float64
	for i := 1; i < len(w.pts); i++ {
		a, b := w.pts[i-1], w.pts[i]
		q += (a.I + b.I) / 2 * (b.T - a.T)
	}
	return q
}

// Clip returns the waveform restricted to [t0, t1], with exact boundary
// samples inserted; everything outside is dropped.
func (w Waveform) Clip(t0, t1 float64) Waveform {
	if w.IsZero() || t1 <= t0 {
		return Waveform{}
	}
	pts := []Point{{T: t0, I: w.At(t0)}}
	for _, p := range w.pts {
		if p.T > t0 && p.T < t1 {
			pts = append(pts, p)
		}
	}
	pts = append(pts, Point{T: t1, I: w.At(t1)})
	return Waveform{pts: pts}
}

// Equal reports whether two waveforms evaluate identically within tol at
// every breakpoint of either.
func Equal(a, b Waveform, tol float64) bool {
	for _, t := range mergeTimes(a, b) {
		if math.Abs(a.At(t)-b.At(t)) > tol {
			return false
		}
	}
	return true
}

// String renders a short human-readable summary.
func (w Waveform) String() string {
	if w.IsZero() {
		return "waveform{zero}"
	}
	peak, at := w.Peak()
	return fmt.Sprintf("waveform{%d pts, [%.3g,%.3g] ps, peak %.4g µA @ %.3g ps}",
		len(w.pts), w.First(), w.Last(), peak, at)
}

// Table renders the samples as a two-column text table, for dumping the
// figures' waveform data.
func (w Waveform) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %14s\n", "t(ps)", "I(uA)")
	for _, p := range w.pts {
		fmt.Fprintf(&b, "%12.4f %14.5f\n", p.T, p.I)
	}
	return b.String()
}
