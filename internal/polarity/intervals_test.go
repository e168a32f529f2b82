package polarity

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

// legacyFeasibleIntervals is the enumerator the sliding pass replaced,
// kept as its reference: every anchor scans every candidate, and a map of
// (leaf, candidate) signatures drops windows with a set already seen.
func legacyFeasibleIntervals(cs *CandidateSet, kappa float64) ([]Interval, error) {
	if kappa < 0 {
		return nil, fmt.Errorf("polarity: negative skew bound %g", kappa)
	}
	leaves := cs.Leaves()
	if len(leaves) == 0 {
		return nil, fmt.Errorf("polarity: no leaves")
	}
	var out []Interval
	seen := make(map[string]bool)
	var sig []byte
	for _, t := range cs.ArrivalTimes() {
		lo, hi := t-kappa, t
		sig = sig[:0]
		ok := true
		for li, leaf := range leaves {
			n := len(sig)
			for ci, c := range cs.ByLeaf[leaf] {
				if c.AT >= lo-1e-9 && c.AT <= hi+1e-9 {
					sig = append(sig,
						byte(li), byte(li>>8), byte(li>>16), byte(li>>24),
						byte(ci), byte(ci>>8), byte(ci>>16), byte(ci>>24))
				}
			}
			if len(sig) == n {
				ok = false
				break
			}
		}
		if !ok || seen[string(sig)] {
			continue
		}
		seen[string(sig)] = true
		feas := make([][]int, len(leaves))
		for p := 0; p+8 <= len(sig); p += 8 {
			li := int(sig[p]) | int(sig[p+1])<<8 | int(sig[p+2])<<16 | int(sig[p+3])<<24
			ci := int(sig[p+4]) | int(sig[p+5])<<8 | int(sig[p+6])<<16 | int(sig[p+7])<<24
			feas[li] = append(feas[li], ci)
		}
		out = append(out, Interval{Lo: lo, Hi: hi, Feasible: feas})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("polarity: no feasible interval for κ=%g (arrival spread too large)", kappa)
	}
	return out, nil
}

// legacyTopIntervals is Optimize's former pick from the full list: a
// stable sort by decreasing degree of freedom, then the first k.
func legacyTopIntervals(ivs []Interval, k int) []Interval {
	ivs = append([]Interval(nil), ivs...)
	sort.SliceStable(ivs, func(i, j int) bool {
		return ivs[i].DegreeOfFreedom() > ivs[j].DegreeOfFreedom()
	})
	if k > 0 && len(ivs) > k {
		ivs = ivs[:k]
	}
	return ivs
}

// intervalsDiff describes the first difference between two interval
// lists, bounds compared bit for bit, or returns "".
func intervalsDiff(got, want []Interval) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d intervals, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Lo) != math.Float64bits(w.Lo) || math.Float64bits(g.Hi) != math.Float64bits(w.Hi) {
			return fmt.Sprintf("interval %d is [%g, %g], want [%g, %g]", i, g.Lo, g.Hi, w.Lo, w.Hi)
		}
		if len(g.Feasible) != len(w.Feasible) {
			return fmt.Sprintf("interval %d has %d leaves, want %d", i, len(g.Feasible), len(w.Feasible))
		}
		for li := range w.Feasible {
			if fmt.Sprint(g.Feasible[li]) != fmt.Sprint(w.Feasible[li]) {
				return fmt.Sprintf("interval %d leaf %d feasible %v, want %v", i, li, g.Feasible[li], w.Feasible[li])
			}
		}
	}
	return ""
}

// checkMatchesLegacy compares FeasibleIntervals, and Optimize's top-k
// path at k ∈ {0, 1, 8}, with the legacy enumerator, error text included.
func checkMatchesLegacy(t testing.TB, name string, cs *CandidateSet, kappa float64) {
	t.Helper()
	want, werr := legacyFeasibleIntervals(cs, kappa)
	got, gerr := FeasibleIntervals(cs, kappa)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s κ=%g: error %v, want %v", name, kappa, gerr, werr)
	}
	if d := intervalsDiff(got, want); d != "" {
		t.Fatalf("%s κ=%g: %s", name, kappa, d)
	}
	for _, k := range []int{0, 1, 8} {
		top, found, err := topIntervals(cs, kappa, k)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s κ=%g k=%d: error %v, want %v", name, kappa, k, err, werr)
		}
		if werr != nil {
			continue
		}
		if found != len(want) {
			t.Fatalf("%s κ=%g k=%d: found %d intervals, want %d", name, kappa, k, found, len(want))
		}
		if d := intervalsDiff(top, legacyTopIntervals(want, k)); d != "" {
			t.Fatalf("%s κ=%g k=%d: %s", name, kappa, k, d)
		}
	}
}

// atSet builds a candidate set from per-leaf arrival times; the leaf IDs
// are spaced out so that leaf index and ID differ.
func atSet(ats ...[]float64) *CandidateSet {
	cs := &CandidateSet{ByLeaf: make(map[clocktree.NodeID][]Candidate)}
	for li, leafATs := range ats {
		leaf := clocktree.NodeID(3*li + 1)
		cands := []Candidate{}
		for _, at := range leafATs {
			cands = append(cands, Candidate{Leaf: leaf, AT: at})
		}
		cs.ByLeaf[leaf] = cands
	}
	return cs
}

// TestFeasibleIntervalsMatchesLegacy: the sliding pass returns exactly the
// quadratic enumerator's intervals, in the same order with the same
// lists, on every bench circuit and on arrival sets built to stress the
// 1e-9 membership slack, the dedup and the error paths.
func TestFeasibleIntervalsMatchesLegacy(t *testing.T) {
	lib := cell.DefaultLibrary()
	sizing, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range bench.Specs() {
		opt := cts.DefaultOptions()
		opt.LeafCell = "BUF_X8"
		tree, err := spec.Synthesize(lib, opt)
		if err != nil {
			t.Fatal(err)
		}
		cs := BuildCandidates(tree, sizing, clocktree.NominalMode)
		for _, kappa := range []float64{0, 5, 20, 100} {
			checkMatchesLegacy(t, spec.Name, cs, kappa)
		}
	}

	inf := math.Inf(1)
	for _, c := range []struct {
		name   string
		cs     *CandidateSet
		kappas []float64
	}{
		{"ties within 1e-9", atSet(
			[]float64{10, 10 + 4e-10, 12},
			[]float64{10 + 9e-10, 15, 10 - 1e-9},
			[]float64{10 + 1e-9, 10 + 2e-9, 11 + 5e-10},
		), []float64{0, 5e-10, 1e-9, 1, 2, 5}},
		{"all equal", atSet([]float64{7, 7, 7}, []float64{7, 7}, []float64{7}), []float64{0, 5}},
		{"single leaf", atSet([]float64{3, 1, 2, 8, 2}), []float64{0, 1, 10}},
		{"spread wider than κ", atSet([]float64{0, 1}, []float64{100, 101}), []float64{0, 5, 50}},
		{"leaf without candidates", atSet([]float64{1, 2}, nil), []float64{5}},
		{"no leaves", atSet(), []float64{5}},
		{"negative κ", atSet([]float64{1}), []float64{-1}},
		{"NaN κ", atSet([]float64{1}), []float64{math.NaN()}},
		{"NaN arrival", atSet([]float64{math.NaN(), 1}, []float64{1}), []float64{5}},
		{"infinite arrivals", atSet([]float64{inf, 1, -inf}, []float64{1, inf, -inf}), []float64{0, 5, inf}},
	} {
		for _, kappa := range c.kappas {
			checkMatchesLegacy(t, c.name, c.cs, kappa)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		cs := randomATSet(rng)
		for _, kappa := range []float64{0, 1e-9, 0.5, 2, 5, 20} {
			checkMatchesLegacy(t, fmt.Sprintf("random set %d", i), cs, kappa)
		}
	}
}

// randomATSet draws up to 8 leaves of up to 6 candidates whose arrival
// times sit on a coarse grid with sub-1e-9 offsets, so exact ties, ties
// inside the membership slack and repeated feasible sets are all common.
func randomATSet(rng *rand.Rand) *CandidateSet {
	ats := make([][]float64, 1+rng.Intn(8))
	for li := range ats {
		for n := 1 + rng.Intn(6); n > 0; n-- {
			ats[li] = append(ats[li], float64(rng.Intn(24))*0.5+float64(rng.Intn(4))*4e-10)
		}
	}
	return atSet(ats...)
}

// FuzzFeasibleIntervals checks the sliding pass against the legacy
// enumerator on arbitrary arrival sets: each byte places one candidate on
// a 0.5 ps grid with a sub-1e-9 offset, a 0xff byte starts the next leaf,
// and κ comes from the first byte.
func FuzzFeasibleIntervals(f *testing.F) {
	f.Add([]byte{2, 10, 11, 0xff, 10, 12, 0xff, 9, 10})
	f.Add([]byte{0, 4, 4, 0xff, 4, 0xff, 4, 68})
	f.Add([]byte{5, 1, 2, 3, 40, 0xff, 80, 81, 0xff, 1, 2})
	kappas := []float64{0, 1e-9, 0.5, 1, 2.5, 5, 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		kappa := kappas[int(data[0])%len(kappas)]
		ats := [][]float64{nil}
		for _, b := range data[1:] {
			if b == 0xff {
				ats = append(ats, nil)
				continue
			}
			last := len(ats) - 1
			ats[last] = append(ats[last], float64(b&0x3f)*0.5+float64(b>>6)*4e-10)
		}
		checkMatchesLegacy(t, "fuzz", atSet(ats...), kappa)
	})
}
