// Package xorpol implements dynamically reconfigurable polarity assignment
// after Lu & Taskin (ISVLSI 2010) and Lu, Teng & Taskin (TVLSI 2012) — the
// paper's references [30] and [31]: each leaf buffering element drives its
// flip-flops through an XOR gate with a mode-programmable control bit, and
// the flip-flops are double-edge triggered. The leaf's *polarity* then
// becomes a per-power-mode choice with (idealized) no timing impact, so
// every mode is optimized independently — the ultimate flexibility the
// static assignment of the main flow approximates.
//
// The cost is the XOR's own switching current, charged per leaf on both
// rails at every edge.
package xorpol

import (
	"context"
	"fmt"
	"math"

	"wavemin/internal/clocktree"
	"wavemin/internal/mosp"
	"wavemin/internal/obs"
	"wavemin/internal/parallel"
	"wavemin/internal/polarity"
	"wavemin/internal/waveform"
)

// Config parameterizes Optimize.
type Config struct {
	Samples  int     // |S| per mode (split over four rail/edge groups)
	ZoneSize float64 // µm; 0 = polarity.DefaultZoneSize
	// Workers bounds the goroutines fanned out over the mode × zone grid
	// (every (mode, zone) instance is independent — modes decouple by
	// construction here). 0 = GOMAXPROCS, 1 = serial; results are
	// identical for every worker count.
	Workers int
}

// xorOverheadFrac scales the XOR gate's own current pulse relative to the
// leaf's main pulse peak.
const xorOverheadFrac = 0.08

// Result is a per-mode polarity program.
type Result struct {
	// Positive[leaf][modeName] reports the XOR control: true = the leaf's
	// output follows the clock (positive polarity) in that mode.
	Positive map[clocktree.NodeID]map[string]bool
	// PeakPerMode is the optimizer's estimate per mode, µA.
	PeakPerMode map[string]float64
	// WorstPeak is the max over modes.
	WorstPeak float64
}

// Optimize chooses each leaf's polarity independently per mode. The tree's
// cells (and hence timing) are untouched: an ideal XOR adds equal delay on
// both polarities, so the skew is whatever the tree already has.
// Cancellation is checked per mode and per zone.
func Optimize(ctx context.Context, t *clocktree.Tree, modes []clocktree.Mode, cfg Config) (*Result, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("xorpol: no modes")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 16
	}
	res := &Result{
		Positive:    make(map[clocktree.NodeID]map[string]bool),
		PeakPerMode: make(map[string]float64),
	}
	for _, leaf := range t.Leaves() {
		res.Positive[leaf] = make(map[string]bool, len(modes))
	}
	zones := polarity.LeafZones(polarity.PartitionZones(t, cfg.ZoneSize))

	// Timings are shared read-only inputs; compute them up front, then fan
	// the independent (mode, zone) instances out as one flat index space
	// and merge in fixed mode-major order afterwards.
	timings := make([]*clocktree.Timing, len(modes))
	for mi, mode := range modes {
		timings[mi] = t.ComputeTiming(mode)
	}
	ctx, sp := obs.Start(ctx, "xorpol")
	defer sp.End()
	sp.Count("xorpol.modes", int64(len(modes)))
	sp.Count("xorpol.zones", int64(len(zones)))
	nz := len(zones)
	solved := make([]modeZoneOut, len(modes)*nz)
	ferr := parallel.ForEach(ctx, cfg.Workers, len(solved), func(k int) error {
		mi, zi := k/nz, k%nz
		// Slot-indexed sub-span on the flat (mode, zone) index so the
		// serialized trace is independent of scheduling.
		zctx := ctx
		if zsp := sp.ChildAt(k, "modezone"); zsp != nil {
			defer zsp.End()
			zsp.SetAttr("mode", modes[mi].Name)
			zsp.Count("zone.leaves", int64(len(zones[zi].Leaves)))
			zctx = obs.WithSpan(ctx, zsp)
		}
		out, err := solveModeZone(zctx, t, timings[mi], &zones[zi], cfg.Samples)
		if err != nil {
			return err
		}
		solved[k] = out
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	for mi, mode := range modes {
		var modePeak float64
		for zi, zone := range zones {
			out := &solved[mi*nz+zi]
			for li, leaf := range zone.Leaves {
				res.Positive[leaf][mode.Name] = out.positive[li]
			}
			if out.peak > modePeak {
				modePeak = out.peak
			}
		}
		res.PeakPerMode[mode.Name] = modePeak
		res.WorstPeak = math.Max(res.WorstPeak, modePeak)
	}
	return res, nil
}

// modeZoneOut is one (mode, zone) solve: the per-leaf positive-polarity
// control bits and the zone's peak estimate.
type modeZoneOut struct {
	positive []bool
	peak     float64
}

// solveModeZone optimizes the polarity program of one zone in one mode.
// Runs on worker goroutines; the tree and timing are read-only here.
func solveModeZone(
	ctx context.Context, t *clocktree.Tree, tm *clocktree.Timing,
	zone *polarity.Zone, samples int,
) (modeZoneOut, error) {
	// Baseline: non-leaf currents plus every leaf's XOR overhead (the XOR
	// switches in both polarities). Per leaf, vertex 0 keeps the parity as
	// built and vertex 1 flips it (swaps the edges).
	base := polarity.Baseline(t, tm, zone.NonLeaves)
	layers := make([][][]waveform.Waveform, len(zone.Leaves))
	for li, leaf := range zone.Leaves {
		keep := polarity.NodeWaves(t, tm, leaf)
		flip := []waveform.Waveform{
			keep[polarity.VDDFall], keep[polarity.GndFall], keep[polarity.VDDRise], keep[polarity.GndRise],
		}
		layers[li] = [][]waveform.Waveform{keep[:], flip}
		pk, _ := keep[polarity.VDDRise].Peak()
		if p2, _ := keep[polarity.GndRise].Peak(); p2 > pk {
			pk = p2
		}
		over := xorPulse(tm, leaf, pk*xorOverheadFrac)
		for g := range base {
			base[g] = waveform.Add(base[g], over)
		}
	}
	graph := polarity.ZoneGraph(samples, base[:], layers)
	sol, err := mosp.Solve(ctx, &graph.Graph, mosp.Options{Epsilon: 0.01})
	graph.Release()
	if err != nil {
		return modeZoneOut{}, err
	}
	out := modeZoneOut{positive: make([]bool, len(zone.Leaves)), peak: sol.Max}
	for li, leaf := range zone.Leaves {
		out.positive[li] = sol.Picks[li] == 0 == t.PolarityOf(leaf)
	}
	return out, nil
}

// xorPulse models the XOR gate's own supply pulse at the leaf's switching
// time.
func xorPulse(tm *clocktree.Timing, leaf clocktree.NodeID, peak float64) waveform.Waveform {
	if peak <= 0 {
		return waveform.Waveform{}
	}
	at := tm.ATOut[leaf]
	return waveform.Triangle(math.Max(0, at-2), 2, 3, peak)
}

// Flips counts, per mode, how many leaves run with flipped (relative to
// the tree's built-in parity) polarity.
func (r *Result) Flips(t *clocktree.Tree, modes []clocktree.Mode) map[string]int {
	out := make(map[string]int, len(modes))
	for _, m := range modes {
		n := 0
		for leaf, byMode := range r.Positive {
			if byMode[m.Name] != t.PolarityOf(leaf) {
				n++
			}
		}
		out[m.Name] = n
	}
	return out
}
