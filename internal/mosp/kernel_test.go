package mosp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// paretoFilterScan is paretoFilter as it was before the witness-first
// order: the same sort, then a full dominance scan of every kept label
// (behind a max-gap skip that the ascending sort never lets fire). It is
// the oracle the rewrite must match pointer for pointer.
func paretoFilterScan(labels []*label, r int) []*label {
	sort.Slice(labels, func(i, j int) bool { return labels[i].max < labels[j].max })
	out := labels[:0]
	for _, cand := range labels {
		dominated := false
		for _, kept := range out {
			if kept.max > cand.max+1e-15 {
				continue
			}
			if dominatesScan(kept.cost, cand.cost, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, cand)
		}
	}
	return out
}

func dominatesScan(a, b []float64, r int) bool {
	for s := 0; s < r; s++ {
		if a[s] > b[s]+1e-15 {
			return false
		}
	}
	return true
}

// randomLabels draws n labels of dimension r built to hit the filter's
// edge cases: coordinates on a coarse grid (so maxes tie and vectors
// dominate each other often), exact copies of earlier vectors, and
// coordinates nudged by 1e-15 around the tolerance at several scales.
func randomLabels(rng *rand.Rand, n, r int) []*label {
	scale := []float64{1e-3, 1, 1e3}[rng.Intn(3)]
	out := make([]*label, n)
	for i := range out {
		cost := make([]float64, r)
		if i > 0 && rng.Intn(5) == 0 {
			copy(cost, out[rng.Intn(i)].cost)
		} else {
			for s := range cost {
				cost[s] = float64(rng.Intn(4)) * scale
			}
		}
		if rng.Intn(3) == 0 {
			s := rng.Intn(r)
			cost[s] += float64(rng.Intn(3)-1) * 1e-15
			if cost[s] < 0 {
				cost[s] = 0
			}
		}
		out[i] = &label{cost: cost, max: maxOf(cost), pick: int32(i)}
	}
	return out
}

// TestParetoFilterMatchesScan: on seeded random label sets the
// witness-first filter returns the same labels, in the same order, as the
// full scan it replaced.
func TestParetoFilterMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		r := 1 + rng.Intn(24)
		labels := randomLabels(rng, rng.Intn(200), r)
		want := paretoFilterScan(append([]*label(nil), labels...), r)
		got := paretoFilter(append([]*label(nil), labels...), r)
		if len(got) != len(want) {
			t.Fatalf("trial %d (r=%d, %d labels): kept %d, scan kept %d", trial, r, len(labels), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (r=%d): position %d holds label %d, scan holds %d",
					trial, r, i, got[i].pick, want[i].pick)
			}
		}
	}
}

// TestHashQuantizedProperties: vectors that round to the same Warburton
// key hash equal, and changing any single quantized coordinate always
// changes the hash (each word is folded in by a bijection).
func TestHashQuantizedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const trials = 500
	sameKey := 0
	for trial := 0; trial < trials; trial++ {
		r := 1 + rng.Intn(160)
		delta := math.Ldexp(1+rng.Float64(), -rng.Intn(20))
		a := make([]float64, r)
		for s := range a {
			a[s] = rng.Float64() * 1e3 * delta
		}
		h := hashQuantized(a, delta)

		// Same key: move every coordinate within its quantization cell.
		b := make([]float64, r)
		for s := range b {
			q := math.Floor(a[s] / delta)
			b[s] = (q + 0.25 + 0.5*rng.Float64()) * delta
		}
		if sameQuantized(a, b, delta) {
			sameKey++
			if hashQuantized(b, delta) != h {
				t.Fatalf("trial %d: equal quantized vectors hash %#x and %#x", trial, h, hashQuantized(b, delta))
			}
		}

		// One coordinate in another cell.
		for s := range a {
			c := append([]float64(nil), a...)
			c[s] += float64(1+rng.Intn(1000)) * delta
			if uint64(c[s]/delta) == uint64(a[s]/delta) {
				continue
			}
			if hashQuantized(c, delta) == h {
				t.Fatalf("trial %d: changing quantized coordinate %d of %d left the hash at %#x", trial, s, r, h)
			}
		}
	}
	if sameKey < trials*9/10 {
		t.Fatalf("only %d of %d trials built a same-key vector", sameKey, trials)
	}
}
