package clocktree

import "wavemin/internal/cell"

// SlopeEvent, CmpEvents and SweepPeak expose the peak sweep's pieces to
// the external tests.
type SlopeEvent = slopeEvent

var (
	CmpEvents = cmpEvents
	SweepPeak = sweepPeak
)

// OrderEvents orders ev as PeakCurrent does, on a fresh workspace.
func OrderEvents(ev []SlopeEvent) []SlopeEvent { return new(peakWorkspace).order(ev) }

// RailEvents returns, in fresh buffers, the unordered slope events
// PeakCurrent sweeps on each rail for source edge e.
func (t *Tree) RailEvents(tm *Timing, e cell.Edge) (idd, iss []SlopeEvent) {
	idd, iss = new(peakWorkspace).events(t, tm, e)
	return idd, iss
}
