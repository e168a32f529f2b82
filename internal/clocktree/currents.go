package clocktree

import (
	"slices"

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
// events, and one sorted sweep per (edge, rail) integrates their sum, so
// the cost is O(P log P) in the pulse count P rather than breakpoints ×
// nodes. The sum is accumulated in a different order than waveform.Sum
// adds, so the two agree to rounding, not bit for bit.
func (t *Tree) PeakCurrent(tm *Timing) float64 {
	// A cell draws as many pulses on one rail as on the other, at either
	// edge, so one count sizes all four sweeps: IDD events fill the first
	// half of the slice and ISS events the second.
	perRail := 0
	for id, nd := range t.nodes {
		_, _, n := nd.Cell.Pulses(cell.Rising, tm.Load[id], tm.Mode.VDDOf(nd.Domain), tm.SlewIn[id])
		perRail += 3 * n
	}
	ev := make([]slopeEvent, 2*perRail)
	idd, iss := ev[:perRail], ev[perRail:]
	var worst float64
	for _, e := range []cell.Edge{cell.Rising, cell.Falling} {
		k := 0
		for id, nd := range t.nodes {
			ip, sp, n := nd.Cell.Pulses(t.EdgeAtInput(NodeID(id), e), tm.Load[id], tm.Mode.VDDOf(nd.Domain), tm.SlewIn[id])
			s, at := nd.currentScale(), tm.ATIn[id]
			for j := 0; j < n; j++ {
				pulseEvents(idd[k:k+3], ip[j], s, at)
				pulseEvents(iss[k:k+3], sp[j], s, at)
				k += 3
			}
		}
		if p := sweepPeak(idd); p > worst {
			worst = p
		}
		if p := sweepPeak(iss); p > worst {
			worst = p
		}
	}
	return worst
}

// slopeEvent is a change of D µA/ps in the slope of a rail's summed
// current at time T ps.
type slopeEvent struct{ T, D float64 }

// pulseEvents writes the three slope changes of pulse p scaled by s and
// shifted by at — the triangle NodeCurrents draws: the slope steps up at
// its start, turns over at its apex and returns to zero at its end. The
// times are computed as waveform.Triangle and Shift compute them, so the
// events sit on the oracle's breakpoints.
func pulseEvents(dst []slopeEvent, p cell.Pulse, s, at float64) {
	apex := p.T0 + p.Rise
	t0, t1, t2 := p.T0+at, apex+at, apex+p.Fall+at
	peak := p.Peak * s
	up, down := peak/(t1-t0), peak/(t2-t1)
	dst[0] = slopeEvent{T: t0, D: up}
	dst[1] = slopeEvent{T: t1, D: -up - down}
	dst[2] = slopeEvent{T: t2, D: down}
}

// sweepPeak sorts one rail's slope events by (time, slope change) and
// walks them once, integrating the summed current and keeping its
// maximum. A sum of triangles peaks at one of their breakpoints, and
// every breakpoint is an event, so checking at each event finds the peak.
// Events equal in both keys are interchangeable, so the result depends
// neither on node numbering nor on the sort algorithm. Like
// waveform.Peak, it never reports less than zero.
func sweepPeak(ev []slopeEvent) float64 {
	if len(ev) == 0 {
		return 0
	}
	slices.SortFunc(ev, func(a, b slopeEvent) int {
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
	})
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
