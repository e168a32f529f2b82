package clocktree

import (
	"math"
	"slices"
	"sync"

	"wavemin/internal/cell"
	"wavemin/internal/waveform"
)

// NodeCurrents returns the IDD and ISS waveforms drawn by one node when
// the clock source launches edge e at t = 0, in absolute time: the cell's
// characterized pulses shifted to the node's input arrival time, with the
// edge flipped once per inverting ancestor.
func (t *Tree) NodeCurrents(tm *Timing, id NodeID, e cell.Edge) (idd, iss waveform.Waveform) {
	nd := t.nodes[id]
	edgeIn := t.EdgeAtInput(id, e)
	vdd := tm.Mode.VDDOf(nd.Domain)
	idd, iss = nd.Cell.Currents(edgeIn, tm.Load[id], vdd, tm.SlewIn[id])
	if s := nd.currentScale(); s != 1 {
		idd, iss = idd.Scale(s), iss.Scale(s)
	}
	return idd.Shift(tm.ATIn[id]), iss.Shift(tm.ATIn[id])
}

// SumCurrents accumulates the IDD and ISS waveforms of the given nodes for
// source edge e.
func (t *Tree) SumCurrents(tm *Timing, ids []NodeID, e cell.Edge) (idd, iss waveform.Waveform) {
	idds := make([]waveform.Waveform, 0, len(ids))
	isss := make([]waveform.Waveform, 0, len(ids))
	for _, id := range ids {
		i1, i2 := t.NodeCurrents(tm, id, e)
		idds = append(idds, i1)
		isss = append(isss, i2)
	}
	return waveform.Sum(idds...), waveform.Sum(isss...)
}

// TreeCurrents accumulates IDD/ISS over every node — the "blue solid
// curve" of the paper's Fig. 2 (all clock nodes).
func (t *Tree) TreeCurrents(tm *Timing, e cell.Edge) (idd, iss waveform.Waveform) {
	ids := make([]NodeID, len(t.nodes))
	for i := range t.nodes {
		ids[i] = NodeID(i)
	}
	return t.SumCurrents(tm, ids, e)
}

// LeafCurrents accumulates IDD/ISS over leaves only — the "dark dotted
// curve" of Fig. 2.
func (t *Tree) LeafCurrents(tm *Timing, e cell.Edge) (idd, iss waveform.Waveform) {
	return t.SumCurrents(tm, t.Leaves(), e)
}

// NonLeafCurrents accumulates IDD/ISS over internal nodes only — the
// waveform Observation 1 says polarity assignment must account for.
func (t *Tree) NonLeafCurrents(tm *Timing, e cell.Edge) (idd, iss waveform.Waveform) {
	return t.SumCurrents(tm, t.NonLeaves(), e)
}

// PeakCurrent returns the worst peak over both rails and both source
// edges for the whole tree — the golden scalar the experiments report as
// "peak current" (µA). It is the peak of TreeCurrents, found without
// building a waveform: every node's cell.Pulses become slope-change
// events, and one ordered sweep per (edge, rail) integrates their sum, so
// the cost is about linear in the pulse count P rather than breakpoints ×
// nodes (see peakWorkspace.order). The sum is accumulated in a different
// order than waveform.Sum adds, so the two agree to rounding, not bit for
// bit. The event buffers come from a pool, so a call on a tree no larger
// than the previous ones allocates nothing.
func (t *Tree) PeakCurrent(tm *Timing) float64 {
	ws := peakWorkspaces.Get().(*peakWorkspace)
	defer ws.release()
	var worst float64
	for _, e := range []cell.Edge{cell.Rising, cell.Falling} {
		idd, iss := ws.events(t, tm, e)
		if p := sweepPeak(ws.order(idd)); p > worst {
			worst = p
		}
		if p := sweepPeak(ws.order(iss)); p > worst {
			worst = p
		}
	}
	return worst
}

// slopeEvent is a change of D µA/ps in the slope of a rail's summed
// current at time T ps.
type slopeEvent struct{ T, D float64 }

// cmpEvents orders slope events by time, then by slope change.
func cmpEvents(a, b slopeEvent) int {
	switch {
	case a.T < b.T:
		return -1
	case a.T > b.T:
		return 1
	case a.D < b.D:
		return -1
	case a.D > b.D:
		return 1
	}
	return 0
}

// appendPulseEvents appends the three slope changes of pulse p scaled by
// s and shifted by at — the triangle NodeCurrents draws: the slope steps
// up at its start, turns over at its apex and returns to zero at its end.
// The times are computed as waveform.Triangle and Shift compute them, so
// the events sit on the oracle's breakpoints.
func appendPulseEvents(dst []slopeEvent, p cell.Pulse, s, at float64) []slopeEvent {
	apex := p.T0 + p.Rise
	t0, t1, t2 := p.T0+at, apex+at, apex+p.Fall+at
	peak := p.Peak * s
	up, down := peak/(t1-t0), peak/(t2-t1)
	return append(dst,
		slopeEvent{T: t0, D: up},
		slopeEvent{T: t1, D: -up - down},
		slopeEvent{T: t2, D: down})
}

// sweepPeak walks one rail's slope events in (time, slope change) order,
// integrating the summed current and keeping its maximum. A sum of
// triangles peaks at one of their breakpoints, and every breakpoint is an
// event, so checking at each event finds the peak. Events equal in both
// keys are interchangeable, so the result depends neither on node
// numbering nor on how the events were ordered; that holds for the signs
// of zero keys too, because the running sums start at +0 and an IEEE sum
// is −0 only when both addends are, so neither sum is ever −0. Like
// waveform.Peak, it never reports less than zero.
func sweepPeak(ev []slopeEvent) float64 {
	if len(ev) == 0 {
		return 0
	}
	var peak, v, slope float64
	last := ev[0].T
	for _, e := range ev {
		v += slope * (e.T - last)
		if v > peak {
			peak = v
		}
		slope += e.D
		last = e.T
	}
	return peak
}

// peakWorkspace holds the buffers one PeakCurrent call sweeps: each rail's
// events, the scatter buffer order buckets them into and its bucket
// counts. PeakCurrent takes one from peakWorkspaces and gives it back, so
// Monte Carlo samples of one tree reuse the same memory.
type peakWorkspace struct {
	idd, iss, scatter []slopeEvent
	count             []int32
}

var peakWorkspaces = sync.Pool{New: func() any { return new(peakWorkspace) }}

// keepWorkspaceBytes caps what a pooled workspace may hold: a bigger one,
// for a tree of more than about 3,500 nodes, is left to the collector
// rather than pinned in the pool.
const keepWorkspaceBytes = 1 << 20

func (ws *peakWorkspace) release() {
	// A slopeEvent is two float64s, a count one int32.
	held := 16*(cap(ws.idd)+cap(ws.iss)+cap(ws.scatter)) + 4*cap(ws.count)
	if held <= keepWorkspaceBytes {
		peakWorkspaces.Put(ws)
	}
}

// events writes the slope events of every node's pulses for source edge
// e into the workspace's rail buffers and returns them, unordered.
func (ws *peakWorkspace) events(t *Tree, tm *Timing, e cell.Edge) (idd, iss []slopeEvent) {
	// A cell draws at most two pulses per rail (cell.Pulses), three events
	// each: with the buffers grown to that bound, the appends never copy.
	bound := 6 * len(t.nodes)
	idd, iss = slices.Grow(ws.idd[:0], bound), slices.Grow(ws.iss[:0], bound)
	for id, nd := range t.nodes {
		ip, sp, n := nd.Cell.Pulses(t.EdgeAtInput(NodeID(id), e), tm.Load[id], tm.Mode.VDDOf(nd.Domain), tm.SlewIn[id])
		s, at := nd.currentScale(), tm.ATIn[id]
		for j := 0; j < n; j++ {
			idd = appendPulseEvents(idd, ip[j], s, at)
			iss = appendPulseEvents(iss, sp[j], s, at)
		}
	}
	ws.idd, ws.iss = idd, iss
	return idd, iss
}

// Below sortAllBelow events order leaves the whole slice to
// slices.SortFunc; a bucket of more than insertionMax events is ordered by
// slices.SortFunc rather than by insertion sort.
const (
	sortAllBelow = 32
	insertionMax = 16
)

// order orders ev by cmpEvents without comparing every pair: about n/2
// equal-width buckets span [min T, max T], a counting pass sizes them, a
// scatter pass copies the events into ws.scatter by bucket, and each
// bucket is then ordered on its own. Because a bucket index
// int((T−lo)·scale) never decreases as T grows, events of equal time share
// a bucket and the buckets follow each other in time, so the result is the
// sequence a full sort gives, up to events equal in both keys. Small
// inputs, an empty time span and non-finite times take slices.SortFunc
// instead. It returns the ordered events: ev itself, sorted in place, or a
// prefix of ws.scatter, valid until the next call.
func (ws *peakWorkspace) order(ev []slopeEvent) []slopeEvent {
	n := len(ev)
	if n < sortAllBelow || n > math.MaxInt32 {
		slices.SortFunc(ev, cmpEvents)
		return ev
	}
	// min and max propagate a NaN, so one check below catches NaN and
	// infinite times alike.
	lo, hi := ev[0].T, ev[0].T
	for _, e := range ev[1:] {
		lo, hi = min(lo, e.T), max(hi, e.T)
	}
	nb := n / 2
	span := hi - lo
	scale := float64(nb) / span
	if !(span > 0) || math.IsInf(span, 0) || math.IsInf(scale, 0) {
		slices.SortFunc(ev, cmpEvents)
		return ev
	}
	bucket := func(t float64) int {
		return min(int((t-lo)*scale), nb-1)
	}
	count := slices.Grow(ws.count[:0], nb)[:nb]
	clear(count)
	for _, e := range ev {
		count[bucket(e.T)]++
	}
	// count[b] becomes bucket b's first slot; the scatter advances it to
	// the first slot past bucket b.
	var start int32
	for b, c := range count {
		count[b] = start
		start += c
	}
	scatter := slices.Grow(ws.scatter[:0], n)[:n]
	for _, e := range ev {
		b := bucket(e.T)
		scatter[count[b]] = e
		count[b]++
	}
	var first int32
	for _, end := range count {
		if s := scatter[first:end]; len(s) > insertionMax {
			slices.SortFunc(s, cmpEvents)
		} else {
			insertionSort(s)
		}
		first = end
	}
	ws.scatter, ws.count = scatter, count
	return scatter
}

// insertionSort orders a few events by cmpEvents.
func insertionSort(s []slopeEvent) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i
		for ; j > 0 && cmpEvents(e, s[j-1]) < 0; j-- {
			s[j] = s[j-1]
		}
		s[j] = e
	}
}
