package waveform

import (
	"cmp"
	"slices"
	"sync"
)

// HotSpots extracts up to n sampling times from the breakpoints of the
// given waveforms, preferring times where the summed magnitude is largest —
// the paper's "hot spot" capture (Fig. 7(b)): most samples of a supply
// current waveform are zero, and the informative points cluster near the
// clock edges. These are the points S at which the polarity optimizer
// evaluates every candidate's noise, so their count is the arc-weight
// dimension of the MOSP formulation. Duplicate times are collapsed; the
// result is sorted, and {0} when every waveform is zero.
//
// The sum is evaluated at every breakpoint exactly as Sum would compute
// it, in pooled scratch, and the n best points are kept by a bounded
// selection: greatest current first, earlier time first among equal
// currents. The inputs are never modified.
func HotSpots(n int, ws ...Waveform) []float64 {
	if n < 1 {
		panic("waveform: HotSpots needs n >= 1")
	}
	s := hotSpotScratches.Get().(*hotSpotScratch)
	defer s.release()
	times, curs := s.times[:0], s.curs[:0]
	for _, w := range ws {
		if w.IsZero() {
			continue
		}
		curs = append(curs, w.Cursor())
		for _, p := range w.pts {
			times = append(times, p.T)
		}
	}
	s.times, s.curs = times, curs
	if len(curs) == 0 {
		return []float64{0}
	}
	slices.Sort(times)
	times = slices.Compact(times)
	// best holds the points kept so far, best first.
	best := s.best[:0]
	for _, t := range times {
		var sum float64
		for j := range curs {
			sum += curs[j].At(t)
		}
		p := Point{T: t, I: sum}
		if len(best) == n && rank(p, best[n-1]) > 0 {
			continue
		}
		i, _ := slices.BinarySearchFunc(best, p, rank)
		if best = slices.Insert(best, i, p); len(best) > n {
			best = best[:n]
		}
	}
	s.best = best
	out := make([]float64, len(best))
	for i, p := range best {
		out[i] = p.T
	}
	slices.Sort(out)
	return out
}

// rank orders hot-spot candidates: greater current first, earlier time
// first among equal currents. Breakpoint times are unique, so the order
// is total and the kept set does not depend on how it is selected.
func rank(p, q Point) int {
	if c := cmp.Compare(q.I, p.I); c != 0 {
		return c
	}
	return cmp.Compare(p.T, q.T)
}

// hotSpotScratch holds one HotSpots call's breakpoint times, its cursors
// over the inputs and its kept points.
type hotSpotScratch struct {
	times []float64
	curs  []Cursor
	best  []Point
}

var hotSpotScratches = sync.Pool{New: func() any { return new(hotSpotScratch) }}

// keepScratchBytes caps what pooled scratch may hold: scratch grown past
// it by a very large sum is left to the collector rather than pinned in
// the pool.
const keepScratchBytes = 1 << 20

func (s *hotSpotScratch) release() {
	clear(s.curs) // a cursor holds its waveform's points
	// A time is 8 bytes, a Cursor 32 and a Point 16.
	if 8*cap(s.times)+32*cap(s.curs)+16*cap(s.best) <= keepScratchBytes {
		hotSpotScratches.Put(s)
	}
}
