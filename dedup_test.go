package wavemin

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"wavemin/internal/obs"
)

// TestWarburtonDedupAnswersPinned pins the answers of configurations in
// which the MOSP's Warburton dedup merges labels: s35932 at |S| = 32, at
// the default ε and at a coarse one. Of the labels whose quantized cost
// vectors coincide, dedup decides which one survives, so dropping or
// changing it moves these digests — unlike at |S| = 158 and ε = 0.01,
// where nothing merges. The digest covers every leaf's cell and the bits
// of the measured peak.
func TestWarburtonDedupAnswersPinned(t *testing.T) {
	want := map[float64]string{
		0.01: "d1d1a621297dfbb4",
		0.5:  "008d7a1af5e23bec",
	}
	for _, eps := range []float64{0.01, 0.5} {
		d, err := Benchmark("s35932")
		if err != nil {
			t.Fatal(err)
		}
		ctx := obs.Into(context.Background(), obs.New(obs.Options{}))
		res, err := d.Optimize(ctx, Config{Samples: 32, Epsilon: eps, Workers: 1})
		if err != nil {
			t.Fatalf("ε=%g: %v", eps, err)
		}
		if hits := res.Stats.Counters["mosp.dedup_hits"]; hits == 0 {
			t.Errorf("ε=%g: dedup merged no labels", eps)
		}
		h := sha256.New()
		for _, leaf := range d.Tree.Leaves() {
			fmt.Fprintf(h, "%d=%s;", leaf, d.Tree.Node(leaf).Cell.Name)
		}
		fmt.Fprintf(h, "%016x", math.Float64bits(res.After.PeakCurrent))
		if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want[eps] {
			t.Errorf("ε=%g: digest %s, want %s (dedup_hits %d, peak %.1f µA)",
				eps, got, want[eps], res.Stats.Counters["mosp.dedup_hits"], res.After.PeakCurrent)
		}
	}
}
