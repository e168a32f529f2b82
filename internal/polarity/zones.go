package polarity

import (
	"math"
	"sort"

	"wavemin/internal/clocktree"
)

// Zone is one tile of the design: power noise is a local effect, so the
// optimizer minimizes the peak in every tile separately (paper §V-A; the
// empirically chosen tile is 50×50 µm).
type Zone struct {
	Key       [2]int
	Leaves    []clocktree.NodeID // leaves placed in the tile, ID order
	NonLeaves []clocktree.NodeID // internal buffering elements in the tile
}

// DefaultZoneSize is the paper's empirical grid pitch, µm.
const DefaultZoneSize = 50.0

// PartitionZones buckets the tree's nodes into size×size tiles: tile
// (i, j) spans [i·size, (i+1)·size) × [j·size, (j+1)·size), on either
// side of the origin alike. Every leaf belongs to exactly one zone;
// internal nodes are attached to the zone containing their placement
// (their switching noise forms the zone's baseline, Observation 1).
// Zones are returned in deterministic key order.
func PartitionZones(t *clocktree.Tree, size float64) []Zone {
	if size <= 0 {
		size = DefaultZoneSize
	}
	byKey := make(map[[2]int]*Zone)
	get := func(x, y float64) *Zone {
		key := [2]int{int(math.Floor(x / size)), int(math.Floor(y / size))}
		z, ok := byKey[key]
		if !ok {
			z = &Zone{Key: key}
			byKey[key] = z
		}
		return z
	}
	t.Walk(func(n *clocktree.Node) {
		z := get(n.X, n.Y)
		if n.IsLeaf() {
			z.Leaves = append(z.Leaves, n.ID)
		} else {
			z.NonLeaves = append(z.NonLeaves, n.ID)
		}
	})
	out := make([]Zone, 0, len(byKey))
	for _, z := range byKey {
		sort.Slice(z.Leaves, func(i, j int) bool { return z.Leaves[i] < z.Leaves[j] })
		sort.Slice(z.NonLeaves, func(i, j int) bool { return z.NonLeaves[i] < z.NonLeaves[j] })
		out = append(out, *z)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key[0] != out[j].Key[0] {
			return out[i].Key[0] < out[j].Key[0]
		}
		return out[i].Key[1] < out[j].Key[1]
	})
	return out
}

// LeafZones filters to zones that contain at least one leaf (zones with
// only internal nodes need no assignment).
func LeafZones(zones []Zone) []Zone {
	out := zones[:0:0]
	for _, z := range zones {
		if len(z.Leaves) > 0 {
			out = append(out, z)
		}
	}
	return out
}
