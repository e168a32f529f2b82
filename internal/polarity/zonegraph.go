package polarity

import (
	"sync"

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
// (Fig. 12). A solution's picks index the vertices of each layer. Release
// the graph once it is solved.
func ZoneGraph(samples int, baseline []waveform.Waveform, layers [][][]waveform.Waveform) *PooledGraph {
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
	graph := graphs.Get().(*PooledGraph)
	if n := dim * (1 + nv); cap(graph.slab) < n {
		graph.slab = make([]float64, n)
	}
	// Every weight is one exact-size window of the slab. Sample times
	// ascend within a group, so a cursor reads each waveform with exactly
	// At's values.
	slab := graph.slab
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
	graph.Baseline = sample(baseline)
	graph.Layers = make([][]mosp.Vertex, len(layers))
	for l, layer := range layers {
		vs := make([]mosp.Vertex, len(layer))
		for v, w := range layer {
			vs[v].Weight = sample(w)
		}
		graph.Layers[l] = vs
	}
	return graph
}

// PooledGraph is a zone's MOSP graph whose weights live in one slab taken
// from a pool. Release gives the slab back once the graph has been
// solved: a mosp.Solution owns all it returns, so it stays valid. A graph
// that is never released is left to the collector.
type PooledGraph struct {
	mosp.Graph
	slab []float64
}

var graphs = sync.Pool{New: func() any { return new(PooledGraph) }}

// keepSlabBytes caps the slab a released graph returns to the pool: a
// bigger one, for a zone of more than about 800 candidates at |S| = 158,
// is left to the collector rather than pinned in the pool.
const keepSlabBytes = 1 << 20

// Release returns the graph's slab to the pool. Neither the graph nor any
// weight read from it may be used afterwards.
func (g *PooledGraph) Release() {
	g.Graph = mosp.Graph{}
	if 8*cap(g.slab) <= keepSlabBytes {
		graphs.Put(g)
	}
}
