package xorpol

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

// resultDigest hashes every field of a polarity program: each leaf's
// control bit per mode, and the bit patterns of the per-mode and worst
// peak estimates.
func resultDigest(res *Result, modes []clocktree.Mode) string {
	h := sha256.New()
	leaves := make([]clocktree.NodeID, 0, len(res.Positive))
	for leaf := range res.Positive {
		leaves = append(leaves, leaf)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	for _, leaf := range leaves {
		fmt.Fprintf(h, "%d:", leaf)
		for _, m := range modes {
			fmt.Fprintf(h, " %s=%t", m.Name, res.Positive[leaf][m.Name])
		}
		fmt.Fprint(h, ";")
	}
	for _, m := range modes {
		fmt.Fprintf(h, "%s=%016x ", m.Name, math.Float64bits(res.PeakPerMode[m.Name]))
	}
	fmt.Fprintf(h, "worst=%016x", math.Float64bits(res.WorstPeak))
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestResultDigestPinned pins the XOR polarity program bit for bit on two
// benchmark circuits (BUF_X8 leaves, four voltage islands) at one and
// three power modes and two sample counts. A mismatch means the
// program or its peak estimates changed, not just the solver's speed.
func TestResultDigestPinned(t *testing.T) {
	want := map[string]string{
		"s15850/modes=1/samples=16":    "d98bb67ab11f3a78",
		"s15850/modes=1/samples=64":    "d98bb67ab11f3a78",
		"s15850/modes=3/samples=16":    "3045391ee179bc0a",
		"s15850/modes=3/samples=64":    "06d4f16c13a65829",
		"ispd09f34/modes=1/samples=16": "2b5fee6c033454e9",
		"ispd09f34/modes=1/samples=64": "7fccc4da6b964453",
		"ispd09f34/modes=3/samples=16": "efc9d4cbc2c7ad62",
		"ispd09f34/modes=3/samples=64": "cb1cb5e36cecbd11",
	}
	for _, name := range []string{"s15850", "ispd09f34"} {
		spec, ok := bench.SpecByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		opt := cts.DefaultOptions()
		opt.LeafCell = "BUF_X8"
		tree, err := spec.Synthesize(cell.DefaultLibrary(), opt)
		if err != nil {
			t.Fatal(err)
		}
		domains := bench.AssignDomains(tree, spec.DieW, spec.DieH, 4)
		for _, numModes := range []int{1, 3} {
			modes := spec.Modes(domains, numModes)
			for _, samples := range []int{16, 64} {
				id := fmt.Sprintf("%s/modes=%d/samples=%d", name, numModes, samples)
				res, err := Optimize(context.Background(), tree, modes, Config{Samples: samples})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if got := resultDigest(res, modes); got != want[id] {
					t.Errorf("%s: digest %s, want %s", id, got, want[id])
				}
			}
		}
	}
}
