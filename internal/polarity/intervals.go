package polarity

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"wavemin/internal/clocktree"
)

// Interval is a feasible arrival-time window [Lo, Hi] with Hi−Lo = κ
// (paper §IV-A, Step 2): any assignment whose every leaf arrival lands
// inside meets the skew bound.
type Interval struct {
	Lo, Hi float64
	// Feasible[leaf index in CandidateSet.Leaves() order] lists the
	// indices (into ByLeaf[leaf]) of candidates inside the window.
	Feasible [][]int
}

// DegreeOfFreedom counts the total feasible (leaf, cell) options — the
// paper's §VI pruning metric; more freedom correlates with lower noise
// (Fig. 14).
func (iv *Interval) DegreeOfFreedom() int {
	n := 0
	for _, f := range iv.Feasible {
		n += len(f)
	}
	return n
}

// FeasibleIntervals enumerates the candidate windows [t−κ, t] anchored at
// every distinct achievable arrival time t and keeps the feasible ones:
// windows where every leaf retains at least one candidate. Intervals with
// identical feasibility sets are deduplicated (they define the same
// optimization instance).
func FeasibleIntervals(cs *CandidateSet, kappa float64) ([]Interval, error) {
	ws, err := feasibleWindows(cs, kappa)
	if err != nil {
		return nil, err
	}
	return buildIntervals(cs, ws), nil
}

// topIntervals returns the k feasible intervals of most freedom (all of
// them when k is 0) in decreasing degree-of-freedom order, ties in anchor
// order (Fig. 14: more freedom, less noise), and how many FeasibleIntervals
// finds. Only the returned intervals get their feasible lists built.
func topIntervals(cs *CandidateSet, kappa float64, k int) ([]Interval, int, error) {
	ws, err := feasibleWindows(cs, kappa)
	if err != nil {
		return nil, 0, err
	}
	found := len(ws)
	slices.SortStableFunc(ws, func(x, y window) int { return (y.b - y.a) - (x.b - x.a) })
	if k > 0 && len(ws) > k {
		ws = ws[:k]
	}
	return buildIntervals(cs, ws), found, nil
}

func buildIntervals(cs *CandidateSet, ws []window) []Interval {
	leaves := cs.Leaves()
	out := make([]Interval, len(ws))
	for i, w := range ws {
		out[i] = w.interval(cs, leaves)
	}
	return out
}

// window is one feasible window before its lists are built: the anchor's
// bounds, and the range [a, b) of the AT-sorted candidates it holds, so
// b−a is its degree of freedom.
type window struct {
	lo, hi float64
	a, b   int
}

// feasibleWindows finds FeasibleIntervals' windows in one sweep. As the
// anchor t rises, both ends of the membership test
// AT ∈ [t−κ−1e-9, t+1e-9] move forward, so every window holds a
// contiguous range of the candidates sorted by AT, and two pointers with
// per-leaf counts decide feasibility in amortized O(1) per anchor. Equal
// ranges are equal sets, and they come from consecutive anchors, so
// comparing with the last kept window deduplicates.
func feasibleWindows(cs *CandidateSet, kappa float64) ([]window, error) {
	if kappa < 0 {
		return nil, fmt.Errorf("polarity: negative skew bound %g", kappa)
	}
	leaves := cs.Leaves()
	if len(leaves) == 0 {
		return nil, fmt.Errorf("polarity: no leaves")
	}
	type member struct {
		at   float64
		leaf int
	}
	var sorted []member
	for li, leaf := range leaves {
		for _, c := range cs.ByLeaf[leaf] {
			if !math.IsNaN(c.AT) { // a NaN arrival lies in no window
				sorted = append(sorted, member{c.AT, li})
			}
		}
	}
	slices.SortFunc(sorted, func(x, y member) int { return cmp.Compare(x.at, y.at) })
	count := make([]int, len(leaves))
	covered, a, b := 0, 0, 0
	var out []window
	for _, t := range cs.ArrivalTimes() {
		lo, hi := t-kappa, t
		from, to := lo-1e-9, hi+1e-9
		if math.IsNaN(from) || math.IsNaN(to) {
			continue // nothing compares inside a NaN bound
		}
		for ; b < len(sorted) && sorted[b].at <= to; b++ {
			if count[sorted[b].leaf]++; count[sorted[b].leaf] == 1 {
				covered++
			}
		}
		for ; a < b && sorted[a].at < from; a++ {
			if count[sorted[a].leaf]--; count[sorted[a].leaf] == 0 {
				covered--
			}
		}
		if covered < len(leaves) {
			continue
		}
		if n := len(out); n > 0 && out[n-1].a == a && out[n-1].b == b {
			continue
		}
		out = append(out, window{lo: lo, hi: hi, a: a, b: b})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("polarity: no feasible interval for κ=%g (arrival spread too large)", kappa)
	}
	return out, nil
}

// interval builds w's feasible lists, each leaf's candidate indices in
// ascending order, with the membership test the sweep applied.
func (w window) interval(cs *CandidateSet, leaves []clocktree.NodeID) Interval {
	from, to := w.lo-1e-9, w.hi+1e-9
	flat := make([]int, 0, w.b-w.a)
	feas := make([][]int, len(leaves))
	for li, leaf := range leaves {
		start := len(flat)
		for ci, c := range cs.ByLeaf[leaf] {
			if c.AT >= from && c.AT <= to {
				flat = append(flat, ci)
			}
		}
		feas[li] = flat[start:len(flat):len(flat)]
	}
	return Interval{Lo: w.lo, Hi: w.hi, Feasible: feas}
}
