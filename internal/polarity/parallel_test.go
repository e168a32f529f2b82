package polarity

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
	"wavemin/internal/waveform"
)

// TestParallelDeterminismOptimize requires bitwise-identical results from
// Optimize under every worker count: the fan-out writes into pre-indexed
// slots and merges in fixed order, so scheduling must not leak into the
// outcome.
func TestParallelDeterminismOptimize(t *testing.T) {
	tree, lib := clusterTree(t, 8)
	for _, algo := range []Algorithm{ClkWaveMin, ClkWaveMinF, ClkPeakMinBaseline} {
		cfg := sizingConfig(lib, algo)
		cfg.Workers = 1
		want, err := Optimize(context.Background(), tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
			cfg.Workers = w
			got, err := Optimize(context.Background(), tree, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", algo, w, err)
			}
			if got.PeakEstimate != want.PeakEstimate {
				t.Fatalf("%v workers=%d: peak %g != %g", algo, w, got.PeakEstimate, want.PeakEstimate)
			}
			if got.SkewEstimate != want.SkewEstimate {
				t.Fatalf("%v workers=%d: skew %g != %g", algo, w, got.SkewEstimate, want.SkewEstimate)
			}
			if got.Interval.Lo != want.Interval.Lo || got.Interval.Hi != want.Interval.Hi ||
				len(got.Assignment) != len(want.Assignment) {
				t.Fatalf("%v workers=%d: interval/assignment size differs", algo, w)
			}
			for leaf, c := range want.Assignment {
				if got.Assignment[leaf] != c {
					t.Fatalf("%v workers=%d: leaf %d assigned %v, want %v",
						algo, w, leaf, got.Assignment[leaf], c)
				}
			}
			if len(got.ZonePeaks) != len(want.ZonePeaks) {
				t.Fatalf("%v workers=%d: zone count differs", algo, w)
			}
			for i := range want.ZonePeaks {
				if got.ZonePeaks[i].Peak != want.ZonePeaks[i].Peak {
					t.Fatalf("%v workers=%d: zone %d peak %g != %g",
						algo, w, i, got.ZonePeaks[i].Peak, want.ZonePeaks[i].Peak)
				}
			}
		}
	}
}

// TestParallelZoneGraphReuse builds and releases the zone graphs of a
// bench circuit from several goroutines at once, each cycling through
// zones of different sizes: every graph must hold exactly the weights of a
// serial build, whichever pooled slab and hot-spot scratch it was handed.
func TestParallelZoneGraphReuse(t *testing.T) {
	spec, _ := bench.SpecByName("s13207")
	lib := cell.DefaultLibrary()
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := spec.Synthesize(lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sizingConfig(lib, ClkWaveMin)
	cs := BuildCandidates(tree, cfg.Library, clocktree.NominalMode)
	tm := tree.ComputeTiming(clocktree.NominalMode)
	type instance struct {
		base   []waveform.Waveform
		layers [][][]waveform.Waveform
	}
	var insts []instance
	for _, zone := range LeafZones(PartitionZones(tree, 0)) {
		base := Baseline(tree, tm, zone.NonLeaves)
		layers := make([][][]waveform.Waveform, len(zone.Leaves))
		for li, leaf := range zone.Leaves {
			for ci := range cs.ByLeaf[leaf] {
				layers[li] = append(layers[li], cs.ByLeaf[leaf][ci].Waves[:])
			}
		}
		insts = append(insts, instance{base[:], layers})
	}
	// flat renders a graph's shape and every weight's bits.
	flat := func(g *PooledGraph) []uint64 {
		out := []uint64{uint64(len(g.Layers))}
		for _, w := range g.Baseline {
			out = append(out, math.Float64bits(w))
		}
		for _, layer := range g.Layers {
			out = append(out, uint64(len(layer)))
			for _, v := range layer {
				for _, w := range v.Weight {
					out = append(out, math.Float64bits(w))
				}
			}
		}
		return out
	}
	want := make([][]uint64, len(insts))
	for i, in := range insts {
		g := ZoneGraph(cfg.Samples, in.base, in.layers)
		want[i] = flat(g)
		g.Release()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3*len(insts); r++ {
				i := (w*7 + r*5) % len(insts)
				g := ZoneGraph(cfg.Samples, insts[i].base, insts[i].layers)
				if !slices.Equal(flat(g), want[i]) {
					t.Errorf("goroutine %d: zone %d graph differs from the serial build", w, i)
				}
				g.Release()
			}
		}(w)
	}
	wg.Wait()
}
