package polarity

import (
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/mosp"
	"wavemin/internal/waveform"
)

// NodeWaves returns a node's supply current per sampling group under the
// timing tm.
func NodeWaves(t *clocktree.Tree, tm *clocktree.Timing, id clocktree.NodeID) [NumGroups]waveform.Waveform {
	iddR, issR := t.NodeCurrents(tm, id, cell.Rising)
	iddF, issF := t.NodeCurrents(tm, id, cell.Falling)
	return [NumGroups]waveform.Waveform{iddR, issR, iddF, issF}
}

// Baseline sums the given non-leaves' currents per sampling group, in
// order: a zone's non-leaf noise, which no assignment changes
// (Observation 1).
func Baseline(t *clocktree.Tree, tm *clocktree.Timing, nonLeaves []clocktree.NodeID) [NumGroups]waveform.Waveform {
	var base [NumGroups]waveform.Waveform
	for _, id := range nonLeaves {
		ws := NodeWaves(t, tm, id)
		for g := range base {
			base[g] = waveform.Add(base[g], ws[g])
		}
	}
	return base
}

// ZoneGraph builds the layered MOSP graph of Algorithm 1 for one zone.
// baseline[g] is the zone's baseline current in sampling group g, and
// layers[l][v][g] the current of vertex v of layer l — one layer per leaf,
// one vertex per option — in that group. Each group is sampled at
// max(1, samples/NumGroups) hot spots of the baseline plus every vertex
// (the paper's Fig. 7 capture, restricted to where current flows in this
// zone), so every NumGroups groups add about |S| = samples dimensions:
// one set of groups for a single mode, one per power mode for ClkWaveMin-M
// (Fig. 12). A solution's picks index the vertices of each layer.
func ZoneGraph(samples int, baseline []waveform.Waveform, layers [][][]waveform.Waveform) *mosp.Graph {
	perGroup := max(1, samples/int(NumGroups))
	nv := 0
	for _, layer := range layers {
		nv += len(layer)
	}
	times := make([][]float64, len(baseline))
	dim := 0
	ws := make([]waveform.Waveform, 0, 1+nv)
	for g := range baseline {
		ws = append(ws[:0], baseline[g])
		for _, layer := range layers {
			for _, v := range layer {
				ws = append(ws, v[g])
			}
		}
		times[g] = waveform.HotSpots(perGroup, ws...)
		dim += len(times[g])
	}
	// Every weight is one exact-size window of a single slab. Sample times
	// ascend within a group, so a cursor reads each waveform with exactly
	// At's values.
	slab := make([]float64, dim*(1+nv))
	sample := func(w []waveform.Waveform) []float64 {
		out := slab[:dim:dim]
		slab = slab[dim:]
		i := 0
		for g, ts := range times {
			cur := w[g].Cursor()
			for _, t := range ts {
				out[i] = cur.At(t)
				i++
			}
		}
		return out
	}
	graph := &mosp.Graph{Baseline: sample(baseline), Layers: make([][]mosp.Vertex, len(layers))}
	for l, layer := range layers {
		vs := make([]mosp.Vertex, len(layer))
		for v, w := range layer {
			vs[v].Weight = sample(w)
		}
		graph.Layers[l] = vs
	}
	return graph
}
