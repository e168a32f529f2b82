package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{50, 3}, {0, 1}, {100, 5}, {25, 2}, {90, 4.6}, {99, 4.96},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestChooseTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {3, 50},
	} {
		got := chooseTail(tc.n)
		if got != tc.want {
			t.Errorf("chooseTail(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if got != 50 && samplesBeyond(tc.n, got) < minBeyond {
			t.Errorf("chooseTail(%d) = p%g leaves %d samples beyond, want >= %d", tc.n, got, samplesBeyond(tc.n, got), minBeyond)
		}
	}
}

func TestCoverageCountsOverlapOnce(t *testing.T) {
	win := interval{0, 100}
	ivs := []interval{{10, 30}, {20, 50}, {90, 120}, {-5, 5}, {200, 300}}
	// [0,5] + [10,50] + [90,100]
	if got := coverage(win, ivs); got != 5+40+10 {
		t.Errorf("coverage = %d, want 55", got)
	}
	if got := coverage(win, nil); got != 0 {
		t.Errorf("coverage of nothing = %d", got)
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{"optimize[0]", interval{0, 100}},
		{"optimize[0]/polarity[0]", interval{10, 30}},
		{"optimize[0]/rung[1]", interval{20, 50}},
		{"optimize[0]/polarity[0]/zone[0]", interval{15, 25}},
		{"other[0]", interval{0, 7}},
	}
	want := map[string]int64{
		"optimize[0]":                     100 - 40, // children cover [10,50]
		"optimize[0]/polarity[0]":         20 - 10,
		"optimize[0]/rung[1]":             30,
		"optimize[0]/polarity[0]/zone[0]": 10,
		"other[0]":                        7,
	}
	got := selfTimes(spans)
	for path, w := range want {
		if got[path] != w {
			t.Errorf("self(%s) = %d, want %d", path, got[path], w)
		}
	}
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := genStream(w.name, 7, 1, 2, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := genStream(w.name, 7, 1, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genStream(w.name, 8, 1, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: same seed, different stream digests %s vs %s", w.name, a.digest, b.digest)
		}
		if len(a.bodies) != len(b.bodies) {
			t.Fatalf("%s: same seed, %d vs %d bodies", w.name, len(a.bodies), len(b.bodies))
		}
		for i := range a.bodies {
			if !bytes.Equal(a.bodies[i], b.bodies[i]) {
				t.Fatalf("%s: same seed, body %d differs", w.name, i)
			}
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 give the same stream %s", w.name, a.digest)
		}
	}
}

func TestStreamPrefixIsStable(t *testing.T) {
	short, err := genProblems(3, "cold", coldPattern, 4)
	if err != nil {
		t.Fatal(err)
	}
	long, err := genProblems(3, "cold", coldPattern, 12)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, p := range long {
		if i < len(short) && !bytes.Equal(p.tree, short[i].tree) {
			t.Errorf("problem %d depends on the stream length", i)
		}
		if p.circuit != coldPattern[i%len(coldPattern)] {
			t.Errorf("problem %d is %s, want %s", i, p.circuit, coldPattern[i%len(coldPattern)])
		}
		if seen[string(p.tree)] {
			t.Errorf("problem %d repeats an earlier tree", i)
		}
		seen[string(p.tree)] = true
	}
}

func TestEditMovesOneLeafWithinRange(t *testing.T) {
	probs, err := genProblems(5, "mixed", []string{"s15850"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after wireTree
	if err := json.Unmarshal(probs[0].tree, &before); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 50; k++ {
		if err := json.Unmarshal(probs[0].tree, &after); err != nil {
			t.Fatal(err)
		}
		if err := drawEdit(rng).apply(&after); err != nil {
			t.Fatal(err)
		}
		changed := 0
		for i := range before.Nodes {
			b, a := before.Nodes[i], after.Nodes[i]
			if b.SinkCap != a.SinkCap {
				changed++
				if a.SinkCap < 4*0.85 || a.SinkCap > 12*1.15 || b.SinkCap == 0 {
					t.Errorf("edit %d: node %d sink cap %g -> %g", k, i, b.SinkCap, a.SinkCap)
				}
			}
			b.SinkCap, a.SinkCap = 0, 0
			if b.X != a.X || b.Cell != a.Cell || b.Parent != a.Parent {
				t.Errorf("edit %d touched more than the sink load of node %d", k, i)
			}
		}
		if changed != 1 {
			t.Errorf("edit %d changed %d leaves, want 1", k, changed)
		}
	}
}

func TestZipfPicksSkewTowardLowRanks(t *testing.T) {
	picks := zipfPicks(rand.New(rand.NewSource(1)), 16, 20000, hitZipf)
	count := make([]int, 16)
	for _, p := range picks {
		count[p]++
	}
	if !(count[0] > count[1] && count[1] > count[3] && count[3] > count[15]) {
		t.Errorf("popularity not decreasing with rank: %v", count)
	}
}
