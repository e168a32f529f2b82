package waveform

import (
	"math/rand"
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
