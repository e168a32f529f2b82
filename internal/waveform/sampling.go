package waveform

import "sort"

// HotSpots extracts up to n sampling times from the breakpoints of the
// given waveforms, preferring times where the summed magnitude is largest —
// the paper's "hot spot" capture (Fig. 7(b)): most samples of a supply
// current waveform are zero, and the informative points cluster near the
// clock edges. These are the points S at which the polarity optimizer
// evaluates every candidate's noise, so their count is the arc-weight
// dimension of the MOSP formulation. Duplicate times are collapsed; the
// result is sorted, and {0} when every waveform is zero.
func HotSpots(n int, ws ...Waveform) []float64 {
	if n < 1 {
		panic("waveform: HotSpots needs n >= 1")
	}
	sum := Sum(ws...)
	if sum.IsZero() {
		return []float64{0}
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
	return out
}
