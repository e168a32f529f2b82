// Package bench generates the synthetic stand-ins for the paper's
// benchmark circuits (ISCAS'89 netlists synthesized with Design Compiler +
// IC Compiler, and ISPD'09 CTS contest designs).
//
// The polarity-assignment evaluation only depends on a handful of
// benchmark properties: the number of leaf buffering elements |L|, the
// total buffering-element count n (which sets the non-leaf noise
// baseline), the spatial distribution of leaves (which sets the zone
// occupancy — 4.3 leaves/zone on average for ISCAS, 4.9 for ISPD, 7.1 for
// s35932 at 50×50 µm zones), and the sink loads. Each named Spec
// reproduces the published values of these properties; sink placements are
// drawn deterministically from the circuit name so every run sees the same
// "netlist".
package bench

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

// Spec describes one benchmark circuit.
type Spec struct {
	Name       string
	NumLeaves  int     // the paper's |L|
	TargetN    int     // the paper's n (total buffering elements)
	DieW, DieH float64 // µm
	MinSinkCap float64 // fF
	MaxSinkCap float64 // fF
	Clustered  bool    // ISPD designs cluster sinks more tightly
}

// Specs returns the seven benchmark circuits of the paper's Tables V–VII
// with their published n and |L| (Table V) and die sizes chosen to
// reproduce the reported zone occupancies at 50×50 µm zones.
func Specs() []Spec {
	return []Spec{
		// ISCAS'89 — ≈4.3 leaves/zone on average; s35932 ≈7.1.
		{Name: "s13207", NumLeaves: 50, TargetN: 58, DieW: 170, DieH: 170, MinSinkCap: 4, MaxSinkCap: 12},
		{Name: "s15850", NumLeaves: 19, TargetN: 22, DieW: 105, DieH: 105, MinSinkCap: 4, MaxSinkCap: 12},
		{Name: "s35932", NumLeaves: 246, TargetN: 323, DieW: 295, DieH: 295, MinSinkCap: 4, MaxSinkCap: 12},
		{Name: "s38417", NumLeaves: 228, TargetN: 304, DieW: 365, DieH: 365, MinSinkCap: 4, MaxSinkCap: 12},
		{Name: "s38584", NumLeaves: 169, TargetN: 210, DieW: 315, DieH: 315, MinSinkCap: 4, MaxSinkCap: 12},
		// ISPD'09 — ≈4.9 leaves/zone; fewer leaves, many repeaters (large n).
		{Name: "ispd09f31", NumLeaves: 111, TargetN: 328, DieW: 240, DieH: 240, MinSinkCap: 8, MaxSinkCap: 20, Clustered: true},
		{Name: "ispd09f34", NumLeaves: 69, TargetN: 210, DieW: 190, DieH: 190, MinSinkCap: 8, MaxSinkCap: 20, Clustered: true},
	}
}

// SpecByName finds a benchmark spec by name.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// seed derives a deterministic RNG seed from the circuit name.
func (s Spec) seed() int64 {
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	return int64(h.Sum64())
}

// Rand returns the circuit's deterministic random source. Each call
// returns a fresh generator at the same state.
func (s Spec) Rand() *rand.Rand { return rand.New(rand.NewSource(s.seed())) }

// Sinks generates the circuit's leaf placements and loads.
func (s Spec) Sinks() []cts.Sink {
	rng := s.Rand()
	sinks := make([]cts.Sink, s.NumLeaves)
	if s.Clustered {
		// ISPD-style: a few dense macro regions plus scattered fill.
		nClusters := 3 + rng.Intn(3)
		centers := make([][2]float64, nClusters)
		for i := range centers {
			centers[i] = [2]float64{
				s.DieW * (0.15 + 0.7*rng.Float64()),
				s.DieH * (0.15 + 0.7*rng.Float64()),
			}
		}
		for i := range sinks {
			if rng.Float64() < 0.75 {
				c := centers[rng.Intn(nClusters)]
				sinks[i].X = clamp(c[0]+rng.NormFloat64()*s.DieW/12, 0, s.DieW)
				sinks[i].Y = clamp(c[1]+rng.NormFloat64()*s.DieH/12, 0, s.DieH)
			} else {
				sinks[i].X = rng.Float64() * s.DieW
				sinks[i].Y = rng.Float64() * s.DieH
			}
			sinks[i].Cap = s.MinSinkCap + rng.Float64()*(s.MaxSinkCap-s.MinSinkCap)
		}
		return sinks
	}
	for i := range sinks {
		sinks[i] = cts.Sink{
			X:   rng.Float64() * s.DieW,
			Y:   rng.Float64() * s.DieH,
			Cap: s.MinSinkCap + rng.Float64()*(s.MaxSinkCap-s.MinSinkCap),
		}
	}
	return sinks
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// Synthesize builds the circuit's buffered clock tree: CTS over the
// generated sinks, then repeater padding toward the published n, then a
// final rebalance. The realized node count is within a few cells of
// TargetN (repeaters are inserted level-by-level to preserve balance).
func (s Spec) Synthesize(lib *cell.Library, opt cts.Options) (*clocktree.Tree, error) {
	tree, err := cts.Synthesize(s.Sinks(), lib, opt)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", s.Name, err)
	}
	padRepeaters(tree, lib, s.TargetN)
	cts.Rebalance(tree, lib, opt)
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("bench %s: %w", s.Name, err)
	}
	return tree, nil
}

// padRepeaters inserts buffer repeaters into the longest wires until the
// tree has ≈ target nodes. To preserve balance, the wire set is processed
// in rounds: within a round, the wires of every child of one tree level are
// split together.
func padRepeaters(tree *clocktree.Tree, lib *cell.Library, target int) {
	rep, ok := lib.ByName("BUF_X8")
	if !ok {
		cells := lib.Buffers()
		if len(cells) == 0 {
			return
		}
		rep = cells[len(cells)/2]
	}
	for rounds := 0; tree.Len() < target && rounds < 8; rounds++ {
		// Group non-root nodes by depth, split the level whose splitting
		// gets closest to the target without overshooting wildly.
		byDepth := make(map[int][]clocktree.NodeID)
		var depthOf func(clocktree.NodeID) int
		depthOf = func(id clocktree.NodeID) int {
			d := 0
			for cur := id; tree.Node(cur).Parent != clocktree.NoNode; cur = tree.Node(cur).Parent {
				d++
			}
			return d
		}
		maxDepth := 0
		for i := 0; i < tree.Len(); i++ {
			id := clocktree.NodeID(i)
			if tree.Node(id).Parent == clocktree.NoNode {
				continue
			}
			d := depthOf(id)
			byDepth[d] = append(byDepth[d], id)
			if d > maxDepth {
				maxDepth = d
			}
		}
		need := target - tree.Len()
		// Prefer the deepest level that fits entirely; otherwise split the
		// `need` longest wires of the shallowest level (slight imbalance,
		// fixed by the caller's rebalance).
		chosen := -1
		for d := maxDepth; d >= 1; d-- {
			if len(byDepth[d]) <= need {
				chosen = d
				break
			}
		}
		if chosen >= 0 {
			for _, id := range byDepth[chosen] {
				tree.SplitWire(id, rep)
			}
			continue
		}
		// No level fits: split the longest wires individually.
		var all []clocktree.NodeID
		for _, ids := range byDepth {
			all = append(all, ids...)
		}
		sort.Slice(all, func(i, j int) bool {
			return tree.Node(all[i]).WireRes > tree.Node(all[j]).WireRes
		})
		if need > len(all) {
			need = len(all)
		}
		for _, id := range all[:need] {
			tree.SplitWire(id, rep)
		}
	}
}

// AssignDomains partitions the die into a numDomains-cell grid of voltage
// islands and assigns every tree node to the island containing it, or to
// the nearest one for a node placed outside the die. Returns
// the domain names. Used by the multi-mode experiments (§VII-E: "four to
// ten power domains").
func AssignDomains(tree *clocktree.Tree, dieW, dieH float64, numDomains int) []string {
	cols := int(math.Ceil(math.Sqrt(float64(numDomains))))
	rows := (numDomains + cols - 1) / cols
	names := make([]string, 0, numDomains)
	for i := 0; i < numDomains; i++ {
		names = append(names, fmt.Sprintf("pd%d", i))
	}
	tree.Walk(func(n *clocktree.Node) {
		// A node outside the die joins the island at the nearest edge.
		cx := min(max(int(n.X/(dieW/float64(cols)+1e-9)), 0), cols-1)
		cy := min(max(int(n.Y/(dieH/float64(rows)+1e-9)), 0), rows-1)
		n.Domain = names[min(cy*cols+cx, numDomains-1)]
	})
	return names
}

// Modes builds numModes power modes over the given domains: mode 0 runs
// everything at 1.1 V; each further mode drops a deterministic subset of
// domains to 0.9 V (each domain has exactly the two operating points of
// the paper's §VII-E).
func (s Spec) Modes(domains []string, numModes int) []clocktree.Mode {
	rng := rand.New(rand.NewSource(s.seed() ^ 0x5eed))
	modes := make([]clocktree.Mode, numModes)
	modes[0] = clocktree.Mode{Name: "M1", Supplies: map[string]float64{}}
	for _, d := range domains {
		modes[0].Supplies[d] = 1.1
	}
	for i := 1; i < numModes; i++ {
		sup := make(map[string]float64, len(domains))
		anyLow := false
		for _, d := range domains {
			if rng.Float64() < 0.5 {
				sup[d] = 0.9
				anyLow = true
			} else {
				sup[d] = 1.1
			}
		}
		if !anyLow { // guarantee modes differ from M1
			sup[domains[rng.Intn(len(domains))]] = 0.9
		}
		modes[i] = clocktree.Mode{Name: fmt.Sprintf("M%d", i+1), Supplies: sup}
	}
	return modes
}
