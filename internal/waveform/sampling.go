package waveform

import (
	"fmt"
	"sort"
)

// SampleSet is the ordered set S of time sampling points at which the
// accumulated noise waveform is evaluated (paper §III, §IV-B). The points
// are relative to the clock edge arriving at the zone under optimization;
// the polarity optimizer evaluates every candidate assignment's waveform at
// exactly these instants, so |S| is the arc-weight dimension r of the MOSP
// formulation.
type SampleSet struct {
	Times []float64 // strictly increasing, ps
}

// NewSampleSet validates and wraps a sampling grid.
func NewSampleSet(times []float64) (SampleSet, error) {
	ts := append([]float64(nil), times...)
	sort.Float64s(ts)
	for i := 1; i < len(ts); i++ {
		if ts[i] == ts[i-1] {
			return SampleSet{}, fmt.Errorf("waveform: duplicate sampling point %g", ts[i])
		}
	}
	if len(ts) == 0 {
		return SampleSet{}, fmt.Errorf("waveform: empty sample set")
	}
	return SampleSet{Times: ts}, nil
}

// UniformSampleSet spreads n points evenly over [t0, t1].
func UniformSampleSet(t0, t1 float64, n int) SampleSet {
	if n < 1 {
		panic("waveform: UniformSampleSet needs n >= 1")
	}
	if n == 1 {
		return SampleSet{Times: []float64{(t0 + t1) / 2}}
	}
	ts := make([]float64, n)
	step := (t1 - t0) / float64(n-1)
	for i := range ts {
		ts[i] = t0 + float64(i)*step
	}
	return SampleSet{Times: ts}
}

// Size returns |S|.
func (s SampleSet) Size() int { return len(s.Times) }

// Vector evaluates w at every sampling point, producing the noise vector
// used as an MOSP arc weight.
func (s SampleSet) Vector(w Waveform) []float64 {
	v := make([]float64, len(s.Times))
	for i, t := range s.Times {
		v[i] = w.At(t)
	}
	return v
}

// MaxAt returns the maximum of w over the sampling points and the arg-max
// time. This is the sampled estimate of the waveform peak — the quantity
// WaveMin minimizes.
func (s SampleSet) MaxAt(w Waveform) (peak, at float64) {
	if len(s.Times) == 0 {
		return 0, 0
	}
	at = s.Times[0]
	peak = w.At(at)
	for _, t := range s.Times[1:] {
		if v := w.At(t); v > peak {
			peak, at = v, t
		}
	}
	return peak, at
}

// HotSpots extracts up to n sampling points from the breakpoints of the
// given waveforms, preferring times where the summed magnitude is largest —
// the paper's "hot spot" capture (Fig. 7(b)): most samples of a supply
// current waveform are zero, and the informative points cluster near the
// clock edges. Duplicate times are collapsed. The result is sorted.
func HotSpots(n int, ws ...Waveform) SampleSet {
	if n < 1 {
		panic("waveform: HotSpots needs n >= 1")
	}
	sum := Sum(ws...)
	if sum.IsZero() {
		return SampleSet{Times: []float64{0}}
	}
	// The sort below reorders pts in place: copy them when Sum returned
	// its one nonzero input as is, never sort the caller's waveform.
	pts := sum.pts
	for _, w := range ws {
		if len(w.pts) > 0 && &w.pts[0] == &pts[0] {
			pts = sum.Points()
			break
		}
	}
	// Sort candidate breakpoints by magnitude, keep the n largest, then
	// restore time order.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].I != pts[j].I {
			return pts[i].I > pts[j].I
		}
		return pts[i].T < pts[j].T
	})
	if len(pts) > n {
		pts = pts[:n]
	}
	times := make([]float64, len(pts))
	for i, p := range pts {
		times[i] = p.T
	}
	sort.Float64s(times)
	// Collapse duplicates defensively (breakpoints are unique, but be safe).
	out := times[:0]
	for i, t := range times {
		if i == 0 || t != times[i-1] {
			out = append(out, t)
		}
	}
	return SampleSet{Times: out}
}

// Union merges two sample sets, dropping duplicates.
func Union(a, b SampleSet) SampleSet {
	ts := append(append([]float64(nil), a.Times...), b.Times...)
	sort.Float64s(ts)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			out = append(out, t)
		}
	}
	return SampleSet{Times: out}
}
