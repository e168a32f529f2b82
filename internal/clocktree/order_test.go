package clocktree_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/variation"
)

type eventBits [2]uint64

func bitsOf(e clocktree.SlopeEvent) eventBits {
	return eventBits{math.Float64bits(e.T), math.Float64bits(e.D)}
}

// checkOrder orders a copy of ev as PeakCurrent does and another with
// slices.SortFunc, and fails unless the first is a permutation of ev,
// sorted by (time, slope change), equal key for key to the second, and
// swept to the same bits. Where a time is NaN no order is total, and the
// two must agree bit for bit instead: the bucketed order leaves such
// inputs to slices.SortFunc.
func checkOrder(t testing.TB, name string, ev []clocktree.SlopeEvent) {
	t.Helper()
	got := clocktree.OrderEvents(slices.Clone(ev))
	want := slices.Clone(ev)
	slices.SortFunc(want, clocktree.CmpEvents)
	if len(got) != len(ev) {
		t.Fatalf("%s: %d events in, %d out", name, len(ev), len(got))
	}
	byBits := func(ev []clocktree.SlopeEvent) []eventBits {
		b := make([]eventBits, len(ev))
		for i, e := range ev {
			b[i] = bitsOf(e)
		}
		slices.SortFunc(b, func(x, y eventBits) int {
			if c := cmp.Compare(x[0], y[0]); c != 0 {
				return c
			}
			return cmp.Compare(x[1], y[1])
		})
		return b
	}
	if !slices.Equal(byBits(got), byBits(ev)) {
		t.Fatalf("%s: output is not a permutation of the input", name)
	}
	if slices.ContainsFunc(ev, func(e clocktree.SlopeEvent) bool { return math.IsNaN(e.T) }) {
		for i := range got {
			if bitsOf(got[i]) != bitsOf(want[i]) {
				t.Fatalf("%s: with a NaN time, event %d is %+v, slices.SortFunc gives %+v", name, i, got[i], want[i])
			}
		}
		return
	}
	for i := range got {
		if i > 0 && clocktree.CmpEvents(got[i-1], got[i]) > 0 {
			t.Fatalf("%s: events %d and %d out of order: %+v, %+v", name, i-1, i, got[i-1], got[i])
		}
		if clocktree.CmpEvents(got[i], want[i]) != 0 {
			t.Fatalf("%s: event %d is %+v, slices.SortFunc gives %+v", name, i, got[i], want[i])
		}
	}
	if g, w := clocktree.SweepPeak(got), clocktree.SweepPeak(want); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: sweep %v after the bucketed order, %v after slices.SortFunc", name, g, w)
	}
}

// randomEvents draws n events whose times come from t and slope changes
// from d.
func randomEvents(n int, t, d func() float64) []clocktree.SlopeEvent {
	ev := make([]clocktree.SlopeEvent, n)
	for i := range ev {
		ev[i] = clocktree.SlopeEvent{T: t(), D: d()}
	}
	return ev
}

// TestOrderEventsMatchesSort: on event sets built to hit every branch of
// the bucketed order — each fallback to slices.SortFunc, crowded and
// sparse buckets, ties in one or both keys, signed zeros — it orders as
// slices.SortFunc does.
func TestOrderEventsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	unit := func() float64 { return rng.Float64() }
	slope := func() float64 { return rng.NormFloat64() * 50 }
	pick := func(vals ...float64) func() float64 {
		return func() float64 { return vals[rng.Intn(len(vals))] }
	}
	cases := map[string][]clocktree.SlopeEvent{
		"empty":           nil,
		"one event":       {{T: 3, D: -1}},
		"all times equal": randomEvents(200, pick(7.25), pick(-2, -1, 0, 1, 2)),
		"one crowded bucket": append(randomEvents(299, func() float64 { return 1e-9 * rng.Float64() }, slope),
			clocktree.SlopeEvent{T: 1e6, D: 1}),
		"duplicate pairs":  randomEvents(300, pick(0, 1.5, 1.5, 4), pick(-3, 3)),
		"signed zeros":     randomEvents(120, pick(math.Copysign(0, -1), 0, 1, -1), pick(math.Copysign(0, -1), 0, 2)),
		"tiny span":        randomEvents(64, pick(1, math.Nextafter(1, 2)), slope),
		"subnormal span":   randomEvents(64, pick(0, math.SmallestNonzeroFloat64), slope),
		"overflowing span": randomEvents(64, pick(-math.MaxFloat64, 0, math.MaxFloat64), slope),
		"infinite times":   randomEvents(64, pick(math.Inf(-1), 2, math.Inf(1)), slope),
		"NaN times":        randomEvents(64, pick(math.NaN(), 2, 5), slope),
		"uniform":          randomEvents(1000, unit, slope),
		"clustered":        randomEvents(1000, func() float64 { return math.Round(rng.ExpFloat64()*8) / 8 }, slope),
	}
	for _, n := range []int{30, 31, 32, 33, 34} {
		cases["n="+strconv.Itoa(n)] = randomEvents(n, unit, slope)
	}
	for name, ev := range cases {
		checkOrder(t, name, ev)
	}
}

// TestOrderEventsMatchesSortOnTrees: the events PeakCurrent sweeps on the
// paper circuits, as synthesized and perturbed, and on a synthesized
// 100k-leaf tree order as slices.SortFunc orders them.
func TestOrderEventsMatchesSortOnTrees(t *testing.T) {
	trees := map[string]*clocktree.Tree{}
	for _, name := range []string{"s15850", "s35932", "ispd09f31"} {
		tree, _, _ := benchTree(t, name)
		trees[name] = tree
		trees[name+"/perturbed"] = variation.Perturb(tree, 0.05, 0.4, rand.New(rand.NewSource(5)))
	}
	if !testing.Short() && !raceEnabled {
		trees["gen100k"] = gridTree(t, 100_000)
	}
	for name, tree := range trees {
		tm := tree.ComputeTiming(clocktree.NominalMode)
		for _, e := range []cell.Edge{cell.Rising, cell.Falling} {
			idd, iss := tree.RailEvents(tm, e)
			checkOrder(t, name+"/"+e.String()+"/idd", idd)
			checkOrder(t, name+"/"+e.String()+"/iss", iss)
		}
	}
}

// FuzzEventOrder: on arbitrary events, with times drawn from a small set
// so that they repeat, the bucketed order is a permutation of its input,
// sorted by (time, slope change), and equal to slices.SortFunc's order.
// Each event takes three bytes: a time, of which the top nine values are
// signed zeros, extremes, infinities and NaN, and a slope change's two
// bytes, of which the lowest stands for −0.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{9, 0, 1, 9, 255, 255, 4, 7, 7, 9, 0x80, 0}, 12))
	f.Add(bytes.Repeat([]byte{250, 1, 2, 251, 3, 4, 0, 5, 6, 255, 7, 8}, 10))
	special := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e300, -1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev := make([]clocktree.SlopeEvent, 0, len(data)/3)
		for i := 0; i+3 <= len(data); i += 3 {
			tb := int(data[i])
			tm := float64(tb%60) * 0.75
			if k := tb - 256 + len(special); k >= 0 {
				tm = special[k]
			}
			d := float64(int16(uint16(data[i+1])<<8|uint16(data[i+2]))) / 64
			if d == math.MinInt16/64 {
				d = math.Copysign(0, -1)
			}
			ev = append(ev, clocktree.SlopeEvent{T: tm, D: d})
		}
		checkOrder(t, "fuzz", ev)
	})
}

// TestParallelPeakWorkspaceReuse: whatever tree a pooled workspace swept
// before — smaller, larger, or one too large to keep — PeakCurrent
// returns the bits a lone call returns, sequentially and from concurrent
// goroutines.
func TestParallelPeakWorkspaceReuse(t *testing.T) {
	var trees []*clocktree.Tree
	for _, name := range []string{"s15850", "s35932", "ispd09f34"} {
		tree, _, _ := benchTree(t, name)
		trees = append(trees, tree, variation.Perturb(tree, 0.05, 0.4, rand.New(rand.NewSource(9))))
	}
	trees = append(trees, gridTree(t, 3000)) // its workspace outgrows the pool's cap
	tms := make([]*clocktree.Timing, len(trees))
	want := make([]uint64, len(trees))
	for i, tree := range trees {
		tms[i] = tree.ComputeTiming(clocktree.NominalMode)
		want[i] = math.Float64bits(tree.PeakCurrent(tms[i]))
	}
	check := func(rng *rand.Rand) error {
		for _, i := range rng.Perm(len(trees)) {
			if got := math.Float64bits(trees[i].PeakCurrent(tms[i])); got != want[i] {
				return fmt.Errorf("tree %d (%d nodes): peak bits %#x, a lone call gave %#x", i, trees[i].Len(), got, want[i])
			}
		}
		return nil
	}
	if err := check(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if err := check(rand.New(rand.NewSource(seed + int64(k)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(10 * w))
	}
	wg.Wait()
}
