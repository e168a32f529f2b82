package waveform

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHotSpotsPrefersLargeMagnitude(t *testing.T) {
	small := Triangle(10, 1, 1, 1)
	big := Triangle(0, 1, 1, 100)
	ts := HotSpots(3, small, big)
	// The three retained breakpoints must include t=1 (the big peak).
	found := false
	for _, tm := range ts {
		if tm == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("hot spots %v should contain the big peak time 1", ts)
	}
}

func TestHotSpotsOnZero(t *testing.T) {
	if ts := HotSpots(4, Waveform{}); len(ts) != 1 || ts[0] != 0 {
		t.Fatalf("zero waveform hotspots: %v", ts)
	}
}

func TestHotSpotsSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := make([]Waveform, 4)
		for i := range ws {
			ws[i] = Triangle(rng.Float64()*20, 0.1+rng.Float64(), 0.1+rng.Float64(), rng.Float64()*50)
		}
		ts := HotSpots(1+rng.Intn(12), ws...)
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// hotSpotsBySum is the HotSpots the bounded selection replaced, kept as
// its reference: it materializes Sum and sorts every breakpoint.
func hotSpotsBySum(n int, ws ...Waveform) []float64 {
	sum := Sum(ws...)
	if sum.IsZero() {
		return []float64{0}
	}
	pts := sum.Points()
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].I != pts[j].I {
			return pts[i].I > pts[j].I
		}
		return pts[i].T < pts[j].T
	})
	if len(pts) > n {
		pts = pts[:n]
	}
	times := make([]float64, len(pts))
	for i, p := range pts {
		times[i] = p.T
	}
	sort.Float64s(times)
	out := times[:0]
	for i, t := range times {
		if i == 0 || t != times[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// checkHotSpotsMatchSum compares HotSpots with the Sum-based reference bit
// for bit and checks that it left every input as it was.
func checkHotSpotsMatchSum(t *testing.T, name string, n int, ws ...Waveform) {
	t.Helper()
	before := make([][]Point, len(ws))
	for i, w := range ws {
		before[i] = w.Points()
	}
	got := HotSpots(n, ws...)
	want := hotSpotsBySum(n, ws...)
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: %v, want %v", name, n, got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d: %v, want %v", name, n, got, want)
		}
	}
	for i, w := range ws {
		if len(w.pts) != len(before[i]) {
			t.Fatalf("%s: input %d changed length", name, i)
		}
		for j, p := range w.pts {
			if math.Float64bits(p.T) != math.Float64bits(before[i][j].T) || math.Float64bits(p.I) != math.Float64bits(before[i][j].I) {
				t.Fatalf("%s: input %d point %d changed from %v to %v", name, i, j, before[i][j], p)
			}
		}
	}
}

// TestHotSpotsMatchesSum: the bounded selection picks the reference's
// spots on zero, single, tied and exhausted inputs and on random sums.
func TestHotSpotsMatchesSum(t *testing.T) {
	a := Triangle(0, 1, 2, 5)
	b := Triangle(1.5, 1, 1, 5)
	plateau := MustNew([]Point{{0, 0}, {1, 3}, {2, 3}, {3, 3}, {4, 0}})
	down := MustNew([]Point{{-1, 2}, {0.5, -1}, {2, 0}})
	for _, c := range []struct {
		name string
		ws   []Waveform
	}{
		{"no inputs", nil},
		{"zero inputs", []Waveform{{}, {}}},
		{"single input", []Waveform{a}},
		{"single input among zeros", []Waveform{{}, plateau, {}}},
		{"tied magnitudes", []Waveform{a, b}},
		{"plateau", []Waveform{plateau}},
		{"plateau plus ties", []Waveform{plateau, Triangle(0, 1, 1, 3), Triangle(3, 0.5, 0.5, 3)}},
		{"negative currents", []Waveform{down, a}},
	} {
		for _, n := range []int{1, 2, 3, 5, 8, 100} {
			checkHotSpotsMatchSum(t, c.name, n, c.ws...)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		ws := randomWaves(rng)
		checkHotSpotsMatchSum(t, "random", 1+rng.Intn(40), ws...)
	}
}

// randomWaves draws up to 12 triangles, some of them zero, whose corners
// sit on a coarse grid, so the waves share breakpoints and the sums tie.
func randomWaves(rng *rand.Rand) []Waveform {
	ws := make([]Waveform, rng.Intn(12))
	for i := range ws {
		if rng.Intn(5) == 0 {
			continue
		}
		ws[i] = Triangle(float64(rng.Intn(20))*0.5, float64(1+rng.Intn(4))*0.5, float64(1+rng.Intn(4))*0.5, float64(rng.Intn(6)))
	}
	return ws
}

// FuzzHotSpots checks HotSpots against the Sum-based reference: every
// three bytes place one breakpoint (wave, time on a 0.25 grid, current
// from −8 to 23), so waves share times and currents tie.
func FuzzHotSpots(f *testing.F) {
	f.Add(uint8(3), []byte{0, 4, 8, 0, 8, 20, 1, 4, 8, 1, 6, 8})
	f.Add(uint8(1), []byte{0, 0, 0})
	f.Add(uint8(40), []byte{0, 1, 9, 1, 1, 9, 2, 1, 9, 2, 3, 0})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		if n == 0 || len(data) > 3*64 {
			return
		}
		var pts [4][]Point
		for i := 0; i+3 <= len(data); i += 3 {
			w := data[i] % 4
			pts[w] = append(pts[w], Point{T: float64(data[i+1]) * 0.25, I: float64(int(data[i+2]%32) - 8)})
		}
		var ws []Waveform
		for _, p := range pts {
			w, err := New(p)
			if err != nil {
				return // a repeated time within one wave
			}
			ws = append(ws, w)
		}
		checkHotSpotsMatchSum(t, "fuzz", int(n), ws...)
	})
}
