package polarity

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

// zoneKeyConfig mirrors the knobs Optimize would hand NewZoneKeyer, with
// the Samples default Optimize fills in made explicit so the helper below
// can call the keyer directly.
func zoneKeyConfig(lib *cell.Library) Config {
	sub, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		panic(err)
	}
	return Config{
		Library: sub, Kappa: 20, Samples: 8, Epsilon: 0.01,
		Algorithm: ClkWaveMin, ZoneSize: 15,
	}
}

// twoZoneTree synthesizes two sink clusters far enough apart that a
// 15 µm grid puts them in different zones, so one zone can be edited
// while the other stays byte-identical.
func twoZoneTree(tb testing.TB) (*clocktree.Tree, *cell.Library) {
	tb.Helper()
	lib := cell.DefaultLibrary()
	var sinks []cts.Sink
	for i := 0; i < 4; i++ {
		sinks = append(sinks, cts.Sink{X: 5 + float64(i%2)*2, Y: 5 + float64(i/2)*2, Cap: 8})
	}
	for i := 0; i < 4; i++ {
		sinks = append(sinks, cts.Sink{X: 40 + float64(i%2)*2, Y: 40 + float64(i/2)*2, Cap: 8})
	}
	tree, err := cts.Synthesize(sinks, lib, cts.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return tree, lib
}

// zoneKeySets computes, per spatial zone, the sorted set of every
// (interval, zone) content key — the same preamble Optimize runs before
// its solver fan-out.
func zoneKeySets(tb testing.TB, tree *clocktree.Tree, cfg Config) map[[2]int][]string {
	tb.Helper()
	mode := cfg.Mode
	if mode.Name == "" {
		mode = clocktree.NominalMode
	}
	cs := BuildCandidates(tree, cfg.Library, mode)
	intervals, err := FeasibleIntervals(cs, cfg.Kappa)
	if err != nil {
		tb.Fatal(err)
	}
	tm := tree.ComputeTiming(mode)
	zones := LeafZones(PartitionZones(tree, cfg.ZoneSize))
	if len(zones) < 2 {
		tb.Fatalf("want >= 2 zones for the property, got %d", len(zones))
	}
	leafIndex := make(map[clocktree.NodeID]int)
	for i, leaf := range cs.Leaves() {
		leafIndex[leaf] = i
	}
	zk := NewZoneKeyer(tree, tm, cs, zones, cfg)
	out := make(map[[2]int][]string, len(zones))
	for ii := range intervals {
		for _, z := range zones {
			out[z.Key] = append(out[z.Key], zk.Key(z, &intervals[ii], leafIndex))
		}
	}
	for _, keys := range out {
		sort.Strings(keys)
	}
	return out
}

func treeJSONBytes(tb testing.TB, tree *clocktree.Tree) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func reloadTree(tb testing.TB, raw []byte, lib *cell.Library) *clocktree.Tree {
	tb.Helper()
	tree, err := clocktree.ReadJSON(bytes.NewReader(raw), lib)
	if err != nil {
		tb.Fatalf("reload scrambled tree: %v", err)
	}
	return tree
}

// TestZoneKeyCanonicalInvariance pins the canonicalization half of the
// zone-key contract: the key is a function of tree content, so a
// serialization that scrambles JSON object key order or permutes the
// nodes array — same content, different bytes — reloads to byte-identical
// zone keys for every (interval, zone) instance.
func TestZoneKeyCanonicalInvariance(t *testing.T) {
	tree, lib := twoZoneTree(t)
	cfg := zoneKeyConfig(lib)
	want := zoneKeySets(t, tree, cfg)
	raw := treeJSONBytes(t, tree)

	t.Run("KeyOrderScrambled", func(t *testing.T) {
		// A round-trip through map[string]any rewrites every object with
		// alphabetized keys — a different field order than the struct
		// encoder emits — without touching any value.
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		scrambled, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(bytes.TrimSpace(scrambled), bytes.TrimSpace(raw)) {
			t.Fatal("scramble produced byte-identical JSON; the property is vacuous")
		}
		got := zoneKeySets(t, reloadTree(t, scrambled, lib), cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("zone keys changed under JSON key-order scrambling")
		}
	})

	t.Run("NodesPermuted", func(t *testing.T) {
		// Reverse the nodes array: the loader indexes nodes by their
		// explicit IDs, so array order is presentation, not content.
		var doc struct {
			Format string            `json:"format"`
			Nodes  []json.RawMessage `json:"nodes"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		for i, j := 0, len(doc.Nodes)-1; i < j; i, j = i+1, j-1 {
			doc.Nodes[i], doc.Nodes[j] = doc.Nodes[j], doc.Nodes[i]
		}
		permuted, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		got := zoneKeySets(t, reloadTree(t, permuted, lib), cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("zone keys changed under nodes-array permutation")
		}
	})
}

// zoneContentKeys keys every zone against one fixed interval with total
// feasibility, isolating the content half of the key from the interval
// dimension: interval windows are anchored at candidate arrival times, so
// an electrical edit anywhere legitimately redraws feasible sets
// tree-wide (a different instance deserves a different key), and only a
// pinned interval exposes the pure per-zone content property.
func zoneContentKeys(tb testing.TB, tree *clocktree.Tree, cfg Config) map[[2]int]string {
	tb.Helper()
	mode := cfg.Mode
	if mode.Name == "" {
		mode = clocktree.NominalMode
	}
	cs := BuildCandidates(tree, cfg.Library, mode)
	tm := tree.ComputeTiming(mode)
	zones := LeafZones(PartitionZones(tree, cfg.ZoneSize))
	if len(zones) < 2 {
		tb.Fatalf("want >= 2 zones for the property, got %d", len(zones))
	}
	leaves := cs.Leaves()
	leafIndex := make(map[clocktree.NodeID]int)
	iv := Interval{Feasible: make([][]int, len(leaves))}
	for i, leaf := range leaves {
		leafIndex[leaf] = i
		for ci := range cs.ByLeaf[leaf] {
			iv.Feasible[i] = append(iv.Feasible[i], ci)
		}
	}
	zk := NewZoneKeyer(tree, tm, cs, zones, cfg)
	out := make(map[[2]int]string, len(zones))
	for _, z := range zones {
		out[z.Key] = zk.Key(z, &iv, leafIndex)
	}
	return out
}

// TestZoneKeyEditInvalidation pins the invalidation half of the
// contract: a parasitic, cell, or placement edit to one leaf flips the
// content key of the zone holding that leaf (the keys cover raw design
// content, not just characterized numbers) while zones the edit cannot
// reach keep byte-identical keys — the property that makes delta replay
// sound.
func TestZoneKeyEditInvalidation(t *testing.T) {
	tree, lib := twoZoneTree(t)
	cfg := zoneKeyConfig(lib)
	want := zoneContentKeys(t, tree, cfg)

	zones := LeafZones(PartitionZones(tree, cfg.ZoneSize))
	edited, other := zones[0], zones[1]
	leaf := edited.Leaves[0]

	edits := []struct {
		name  string
		apply func(tr *clocktree.Tree)
	}{
		{"WireCap", func(tr *clocktree.Tree) { tr.Node(leaf).WireCap += 1e-3 }},
		{"Cell", func(tr *clocktree.Tree) {
			swap := "BUF_X16"
			if tr.Node(leaf).Cell.Name == swap {
				swap = "BUF_X8"
			}
			tr.SetCell(leaf, lib.MustByName(swap))
		}},
		{"PlacementX", func(tr *clocktree.Tree) { tr.Node(leaf).X += 0.25 }},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			work := tree.Clone()
			e.apply(work)
			got := zoneContentKeys(t, work, cfg)
			if got[edited.Key] == want[edited.Key] {
				t.Fatalf("edited zone %v kept its pre-edit key under %s edit", edited.Key, e.name)
			}
			if got[other.Key] != want[other.Key] {
				t.Fatalf("untouched zone %v key changed under %s edit", other.Key, e.name)
			}
		})
	}
}
