package multimode

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

// resultDigest hashes every field of a result — assignment names, bank
// steps per mode, window bounds, counters, and the bit patterns of both
// peak estimates — so any change to the solver's arithmetic shows.
func resultDigest(res *Result) string {
	h := sha256.New()
	leaves := make([]clocktree.NodeID, 0, len(res.Assignment))
	for leaf := range res.Assignment {
		leaves = append(leaves, leaf)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	for _, leaf := range leaves {
		fmt.Fprintf(h, "%d=%s", leaf, res.Assignment[leaf].Name)
		st := res.Steps[leaf]
		modes := make([]string, 0, len(st))
		for m := range st {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		for _, m := range modes {
			fmt.Fprintf(h, " %s:%d", m, st[m])
		}
		fmt.Fprint(h, ";")
	}
	for _, w := range res.Windows {
		writeBits(h, w.Lo, w.Hi)
	}
	fmt.Fprintf(h, "adb=%d adi=%d inserted=%d feasible=%d tried=%d ",
		res.NumADBs, res.NumADIs, res.ADBInserted, res.Feasible, res.Tried)
	writeBits(h, res.PeakEstimate, res.MeanZonePeak)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func writeBits(h hash.Hash, xs ...float64) {
	for _, x := range xs {
		fmt.Fprintf(h, "%016x ", math.Float64bits(x))
	}
}

// benchCircuit synthesizes a named benchmark the way the experiments do
// (BUF_X8 leaves) over four voltage islands with numModes power modes.
func benchCircuit(t testing.TB, name string, numModes int) (*clocktree.Tree, []clocktree.Mode, *cell.Library) {
	t.Helper()
	spec, ok := bench.SpecByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	lib := cell.DefaultLibrary()
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := spec.Synthesize(lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	domains := bench.AssignDomains(tree, spec.DieW, spec.DieH, 4)
	return tree, spec.Modes(domains, numModes), lib
}

// TestResultDigestPinned pins ClkWaveMin-M bit for bit on two benchmark
// circuits across mode counts, the ε solver and the fast heuristic, and
// with ADIs on and off. At κ = 12 ps every ispd09f34 case and the
// three-mode s15850 cases go through ADB insertion, and with three modes
// the ADI changes the answer on both circuits, so the adjustable
// candidates and their bank-step shifts are covered too. A mismatch means
// the solver's answer changed, not just its speed.
func TestResultDigestPinned(t *testing.T) {
	want := map[string]string{
		"s15850/modes=2/fast=false/adi=false":    "b6e19466bc2b6b35",
		"s15850/modes=2/fast=false/adi=true":     "b6e19466bc2b6b35",
		"s15850/modes=2/fast=true/adi=false":     "0a83fda7ceb1876d",
		"s15850/modes=2/fast=true/adi=true":      "0a83fda7ceb1876d",
		"s15850/modes=3/fast=false/adi=false":    "f555e2ba5034c30c",
		"s15850/modes=3/fast=false/adi=true":     "82e0761755e73ca4",
		"s15850/modes=3/fast=true/adi=false":     "f555e2ba5034c30c",
		"s15850/modes=3/fast=true/adi=true":      "dbc2977189300d20",
		"ispd09f34/modes=2/fast=false/adi=false": "cbe2a96486c1c8f0",
		"ispd09f34/modes=2/fast=false/adi=true":  "cbe2a96486c1c8f0",
		"ispd09f34/modes=2/fast=true/adi=false":  "044c5fab019ec8f0",
		"ispd09f34/modes=2/fast=true/adi=true":   "044c5fab019ec8f0",
		"ispd09f34/modes=3/fast=false/adi=false": "da2c0e5fa8cd4746",
		"ispd09f34/modes=3/fast=false/adi=true":  "33394464044ce738",
		"ispd09f34/modes=3/fast=true/adi=false":  "407d4ba2e9552823",
		"ispd09f34/modes=3/fast=true/adi=true":   "b392bcc24fce39c4",
	}
	for _, name := range []string{"s15850", "ispd09f34"} {
		for _, numModes := range []int{2, 3} {
			for _, fast := range []bool{false, true} {
				for _, withADI := range []bool{false, true} {
					id := fmt.Sprintf("%s/modes=%d/fast=%t/adi=%t", name, numModes, fast, withADI)
					tree, modes, lib := benchCircuit(t, name, numModes)
					cfg := mmConfig(lib, withADI)
					cfg.Kappa, cfg.Samples, cfg.Fast = 12, 64, fast
					res, err := Optimize(context.Background(), tree, modes, cfg)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if got := resultDigest(res); got != want[id] {
						t.Errorf("%s: digest %s, want %s", id, got, want[id])
					}
				}
			}
		}
	}
}
