package polarity

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/cts"
)

// TestZoneKeyBytesPinned pins the zone-key bytes themselves, not just their
// equalities: DataDir/zones stores solutions under these keys, so a change
// to any section of the key — a renamed parameter, a reordered waveform, a
// different number rendering — silently orphans every stored solution, or
// worse, aliases one. It hashes the sorted keys of every (interval, zone)
// instance of two benchmark circuits under both keyed algorithms.
func TestZoneKeyBytesPinned(t *testing.T) {
	want := map[string]string{
		"s15850/ClkWaveMin/keys=140":      "7cfa4e54125cf55d",
		"s15850/ClkWaveMin-f/keys=140":    "1275a8d2f285b09e",
		"ispd09f34/ClkWaveMin/keys=440":   "356afc540ddc9f45",
		"ispd09f34/ClkWaveMin-f/keys=440": "bf39176ecf8f6dfd",
	}
	lib := cell.DefaultLibrary()
	for _, name := range []string{"s15850", "ispd09f34"} {
		spec, ok := bench.SpecByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		opt := cts.DefaultOptions()
		opt.LeafCell = "BUF_X8"
		tree, err := spec.Synthesize(lib, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{ClkWaveMin, ClkWaveMinF} {
			cfg := zoneKeyConfig(lib)
			cfg.ZoneSize = DefaultZoneSize
			cfg.Algorithm = algo
			var keys []string
			for _, ks := range zoneKeySets(t, tree, cfg) {
				keys = append(keys, ks...)
			}
			sort.Strings(keys)
			h := sha256.New()
			for _, k := range keys {
				fmt.Fprintln(h, k)
			}
			id := fmt.Sprintf("%s/%s/keys=%d", name, algo, len(keys))
			if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want[id] {
				t.Errorf("%s: key digest %s, want %s; if the key encoding changed on purpose, bump zonecache.KeyFormat and re-pin", id, got, want[id])
			}
		}
	}
}
