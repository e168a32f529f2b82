package polarity

import (
	"fmt"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/mosp"
	"wavemin/internal/waveform"
)

// ZoneInstance is the MOSP-ready optimization instance for one
// (zone, interval) pair: sampled baselines, per-candidate noise vectors,
// and the layered graph of Algorithm 1.
type ZoneInstance struct {
	Zone     Zone
	Interval *Interval
	// Samples holds the time sampling points per (rail, edge) group; the
	// concatenation over groups is the paper's S (r = |S| = graph dim).
	Samples [NumGroups]waveform.SampleSet
	// Baseline per group: the zone's non-leaf current waveform
	// (Observation 1).
	Baseline [NumGroups]waveform.Waveform
	// Graph is the layered MOSP instance; layer i corresponds to
	// Zone.Leaves[i] and vertex tags index into the candidate slice of
	// that leaf.
	Graph *mosp.Graph
}

// BuildZoneInstance assembles the instance. leafIndex maps a leaf ID to
// its position in cs.Leaves() order (the interval's Feasible index).
// sampleCount is the paper's |S|, split evenly across the four groups
// (minimum one sample per group).
func BuildZoneInstance(
	t *clocktree.Tree, tm *clocktree.Timing, cs *CandidateSet,
	zone Zone, iv *Interval, leafIndex map[clocktree.NodeID]int,
	sampleCount int,
) (*ZoneInstance, error) {
	if len(zone.Leaves) == 0 {
		return nil, fmt.Errorf("polarity: zone %v has no leaves", zone.Key)
	}
	perGroup := sampleCount / int(NumGroups)
	if perGroup < 1 {
		perGroup = 1
	}
	zi := &ZoneInstance{Zone: zone, Interval: iv}

	// Non-leaf baseline waveforms per group.
	for _, id := range zone.NonLeaves {
		iddR, issR := t.NodeCurrents(tm, id, cell.Rising)
		iddF, issF := t.NodeCurrents(tm, id, cell.Falling)
		zi.Baseline[VDDRise] = waveform.Add(zi.Baseline[VDDRise], iddR)
		zi.Baseline[GndRise] = waveform.Add(zi.Baseline[GndRise], issR)
		zi.Baseline[VDDFall] = waveform.Add(zi.Baseline[VDDFall], iddF)
		zi.Baseline[GndFall] = waveform.Add(zi.Baseline[GndFall], issF)
	}

	// Feasible candidates per zone leaf.
	feasible := make([][]*Candidate, len(zone.Leaves))
	for li, leaf := range zone.Leaves {
		gi, ok := leafIndex[leaf]
		if !ok {
			return nil, fmt.Errorf("polarity: leaf %d missing from candidate set", leaf)
		}
		cands := cs.ByLeaf[leaf]
		for _, ci := range iv.Feasible[gi] {
			feasible[li] = append(feasible[li], &cands[ci])
		}
		if len(feasible[li]) == 0 {
			return nil, fmt.Errorf("polarity: leaf %d infeasible in interval [%g,%g]", leaf, iv.Lo, iv.Hi)
		}
	}

	// Sampling points: hot spots of (baseline + every feasible candidate)
	// per group — the paper's Fig. 7 capture restricted to where current
	// actually flows in this zone.
	for g := Group(0); g < NumGroups; g++ {
		ws := []waveform.Waveform{zi.Baseline[g]}
		for _, cands := range feasible {
			for _, c := range cands {
				ws = append(ws, c.Wave(g))
			}
		}
		zi.Samples[g] = waveform.HotSpots(perGroup, ws...)
	}

	// Assemble the layered graph.
	g := &mosp.Graph{Baseline: zi.vector(func(gr Group) waveform.Waveform { return zi.Baseline[gr] })}
	for li := range zone.Leaves {
		layer := make([]mosp.Vertex, 0, len(feasible[li]))
		for _, cand := range feasible[li] {
			c := cand
			layer = append(layer, mosp.Vertex{
				Weight: zi.vector(c.Wave),
				Tag:    candIndex(cs.ByLeaf[zone.Leaves[li]], c),
			})
		}
		g.Layers = append(g.Layers, layer)
	}
	zi.Graph = g
	return zi, nil
}

// vector samples a per-group waveform selector over all groups and
// concatenates — the noise vector of the MOSP formulation. Sample times
// ascend within a group (HotSpots sorts them), so a cursor reads each
// waveform with exactly At's values.
func (zi *ZoneInstance) vector(sel func(Group) waveform.Waveform) []float64 {
	out := make([]float64, 0, zi.Dim())
	for g := Group(0); g < NumGroups; g++ {
		cur := sel(g).Cursor()
		for _, t := range zi.Samples[g].Times {
			out = append(out, cur.At(t))
		}
	}
	return out
}

// Dim returns the instance's r = |S| (post group-splitting).
func (zi *ZoneInstance) Dim() int {
	n := 0
	for g := Group(0); g < NumGroups; g++ {
		n += zi.Samples[g].Size()
	}
	return n
}

func candIndex(cands []Candidate, c *Candidate) int {
	for i := range cands {
		if &cands[i] == c {
			return i
		}
	}
	return -1
}

// EstimateZonePeak evaluates an assignment on the instance: the max over
// the sample set of baseline + chosen candidates — the optimizer-side
// estimate of the zone's peak.
func (zi *ZoneInstance) EstimateZonePeak(cs *CandidateSet, a Assignment) (float64, error) {
	run := append([]float64(nil), zi.Graph.Baseline...)
	for _, leaf := range zi.Zone.Leaves {
		chosen := a[leaf]
		if chosen == nil {
			return 0, fmt.Errorf("polarity: leaf %d unassigned", leaf)
		}
		cands := cs.ByLeaf[leaf]
		found := false
		for i := range cands {
			if cands[i].Cell == chosen {
				v := zi.vector(cands[i].Wave)
				for s := range run {
					run[s] += v[s]
				}
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("polarity: leaf %d cell %s not characterized", leaf, chosen.Name)
		}
	}
	peak := 0.0
	for _, v := range run {
		if v > peak {
			peak = v
		}
	}
	return peak, nil
}
