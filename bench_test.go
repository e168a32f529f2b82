package wavemin

// Benchmark harness: one testing.B benchmark per paper table and figure
// (regenerating its data end-to-end on a reduced configuration so -bench
// runs stay tractable), plus ablation benches for the design choices
// DESIGN.md calls out and micro-benchmarks for the hot substrates. The
// full-parameter runs live in cmd/experiments.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
	"wavemin/internal/experiments"
	"wavemin/internal/mosp"
	"wavemin/internal/polarity"
	"wavemin/internal/spice"
	"wavemin/internal/variation"
	"wavemin/internal/waveform"
	"wavemin/internal/xorpol"
)

// --- Paper tables ---------------------------------------------------------

func BenchmarkTable1SiblingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 16 {
			b.Fatal("bad sweep")
		}
	}
}

func BenchmarkTable2Characterization(b *testing.B) {
	lib := cell.SizingLibrary()
	for i := 0; i < b.N; i++ {
		if cell.CharacterizationTable(lib, 6, []float64{0.9, 1.1}) == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable5PeakMinVsWaveMin(b *testing.B) {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Table5Config{
				Circuits: []string{"s13207"}, Kappa: 20, Samples: 32,
				Epsilon: 0.01, MaxIntervals: 4, Workers: workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunTable5(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Rows[0].ImpPeak, "peak-improvement-%")
			}
		})
	}
}

func BenchmarkTable6SamplingSweep(b *testing.B) {
	cfg := experiments.Table6Config{
		Circuits: []string{"s13207"}, Kappa: 20, Epsilon: 0.01,
		SampleSweeps: []int{4, 8, 32}, FastSamples: 32, MaxIntervals: 4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7MultiMode(b *testing.B) {
	cfg := experiments.Table7Config{
		Circuits: []string{"s13207"}, SkewBounds: []float64{16},
		NumModes: 3, Samples: 16, Epsilon: 0.05, MaxIntersections: 4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].ImpPeak, "peak-improvement-%")
	}
}

func BenchmarkMonteCarlo(b *testing.B) {
	cfg := experiments.MCConfig{
		Circuits: []string{"s13207"}, Kappa: 100, Samples: 16, Epsilon: 0.05,
		Sigma: 0.05, Instances: 100, Seed: 1, MaxIntervals: 4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMonteCarlo(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgYieldWM*100, "wm-yield-%")
	}
}

// --- Paper figures --------------------------------------------------------

func BenchmarkFig1Waveforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Enumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		if !res.ObservationHolds() {
			b.Fatal("observation 1 lost")
		}
	}
}

func BenchmarkFig3ADIToy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		if res.NumADIs == 0 {
			b.Fatal("ADIs not used")
		}
	}
}

func BenchmarkFig6Intervals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14DegreeOfFreedom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig14("s15850", 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Correlation, "pearson-r")
	}
}

// --- Ablations ------------------------------------------------------------

// benchTree builds the shared single-zone ablation instance.
func benchTree(b *testing.B) (*clocktree.Tree, *cell.Library) {
	b.Helper()
	lib := cell.DefaultLibrary()
	var sinks []cts.Sink
	for i := 0; i < 10; i++ {
		sinks = append(sinks, cts.Sink{X: 18 + float64(i*2), Y: 20 + float64(i%3)*4, Cap: 8})
	}
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := cts.Synthesize(sinks, lib, opt)
	if err != nil {
		b.Fatal(err)
	}
	return tree, lib
}

func ablationConfig(lib *cell.Library) polarity.Config {
	sub, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		panic(err)
	}
	return polarity.Config{
		Library: sub, Kappa: 20, Samples: 32, Epsilon: 0.01,
		Algorithm: polarity.ClkWaveMin, MaxIntervals: 4,
	}
}

// BenchmarkAblationEpsilon sweeps Warburton's ε: coarser rounding trades
// quality for speed.
func BenchmarkAblationEpsilon(b *testing.B) {
	tree, lib := benchTree(b)
	for _, eps := range []float64{0.001, 0.01, 0.1, 0.5} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			cfg := ablationConfig(lib)
			cfg.Epsilon = eps
			for i := 0; i < b.N; i++ {
				res, err := polarity.Optimize(context.Background(), tree, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.PeakEstimate, "peak-estimate-uA")
			}
		})
	}
}

// BenchmarkAblationZoneSize sweeps the tile pitch around the paper's
// empirical 50 µm.
func BenchmarkAblationZoneSize(b *testing.B) {
	d, err := Benchmark("s13207")
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.DefaultLibrary()
	for _, zs := range []float64{25, 50, 100} {
		b.Run(fmt.Sprintf("zone=%gum", zs), func(b *testing.B) {
			cfg := ablationConfig(lib)
			cfg.ZoneSize = zs
			for i := 0; i < b.N; i++ {
				res, err := polarity.Optimize(context.Background(), d.Tree, cfg)
				if err != nil {
					b.Fatal(err)
				}
				work := d.Tree.Clone()
				polarity.Apply(work, res.Assignment)
				tm := work.ComputeTiming(clocktree.NominalMode)
				b.ReportMetric(work.PeakCurrent(tm), "golden-peak-uA")
			}
		})
	}
}

// BenchmarkAblationDoFPruning compares exploring one DoF-ordered interval
// against many — Fig. 14's claim that the high-DoF interval is where the
// good solutions live.
func BenchmarkAblationDoFPruning(b *testing.B) {
	tree, lib := benchTree(b)
	for _, max := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("intervals=%d", max), func(b *testing.B) {
			cfg := ablationConfig(lib)
			cfg.MaxIntervals = max
			for i := 0; i < b.N; i++ {
				res, err := polarity.Optimize(context.Background(), tree, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.PeakEstimate, "peak-estimate-uA")
			}
		})
	}
}

// BenchmarkAblationNonLeaf toggles Observation 1: optimizing blind to the
// non-leaf baseline, as prior work did.
func BenchmarkAblationNonLeaf(b *testing.B) {
	d, err := Benchmark("s13207")
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.DefaultLibrary()
	for _, ignore := range []bool{false, true} {
		name := "aware"
		if ignore {
			name = "blind"
		}
		b.Run(name, func(b *testing.B) {
			cfg := ablationConfig(lib)
			cfg.IgnoreNonLeaf = ignore
			for i := 0; i < b.N; i++ {
				res, err := polarity.Optimize(context.Background(), d.Tree, cfg)
				if err != nil {
					b.Fatal(err)
				}
				work := d.Tree.Clone()
				polarity.Apply(work, res.Assignment)
				tm := work.ComputeTiming(clocktree.NominalMode)
				b.ReportMetric(work.PeakCurrent(tm), "golden-peak-uA")
			}
		})
	}
}

// --- ECO / incremental re-optimization --------------------------------------

func ecoBenchConfig() Config {
	return Config{Kappa: 20, Samples: 16, Epsilon: 0.01, MaxIntervals: 384}
}

// cloneForRun snapshots a design for one solver run without sharing tree
// storage — the ECO benchmarks mirror the serving flow, where every job
// rebuilds its design from the canonical tree bytes, so a run's commit
// must never leak into the next iteration's problem.
func cloneForRun(d *Design) *Design {
	t, modes, lib := d.snapshot()
	return &Design{Tree: t, Grid: d.Grid, Modes: modes, lib: lib, dieW: d.dieW, dieH: d.dieH}
}

// BenchmarkECODelta1Leaf is the headline ECO number: on s35932, one leaf's
// sink load changes and the delta re-solve (seeded with the base run's
// per-zone solutions) is compared against a cold solve of the same edited
// tree. The results are bitwise-identical by contract — the benchmark
// asserts that once, untimed — so the cold/delta ns-per-op ratio is pure
// speedup, not a quality trade.
func BenchmarkECODelta1Leaf(b *testing.B) {
	base, err := Benchmark("s35932")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cfg := ecoBenchConfig()

	// Base run: an empty ECO config opens a session that records every
	// (interval, zone) solution the run touches.
	baseCfg := cfg
	baseCfg.ECO = &ECOConfig{}
	baseRes, err := cloneForRun(base).Optimize(ctx, baseCfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(baseRes.Zones) == 0 {
		b.Fatal("base run recorded no zone solutions")
	}

	// The ECO: one leaf's sink load changes.
	delta := cloneForRun(base)
	leaf := delta.Tree.Leaves()[0]
	delta.Tree.SetSinkCap(leaf, delta.Tree.Node(leaf).SinkCap+0.5)

	deltaCfg := cfg
	deltaCfg.ECO = &ECOConfig{BaseZones: baseRes.Zones}

	coldRes, err := cloneForRun(delta).Optimize(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	warmRes, err := cloneForRun(delta).Optimize(ctx, deltaCfg)
	if err != nil {
		b.Fatal(err)
	}
	if warmRes.ZonesReused == 0 || warmRes.ZonesResolved == 0 {
		b.Fatalf("delta run reused/resolved = %d/%d, want both > 0",
			warmRes.ZonesReused, warmRes.ZonesResolved)
	}
	coldJSON := resultBytesNoRuntime(b, coldRes)
	warmJSON := resultBytesNoRuntime(b, warmRes)
	if !bytes.Equal(coldJSON, warmJSON) {
		b.Fatalf("delta result diverged from cold solve:\ncold %s\nwarm %s", coldJSON, warmJSON)
	}

	run := func(b *testing.B, runCfg Config) *Result {
		var res *Result
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := cloneForRun(delta)
			b.StartTimer()
			var err error
			if res, err = d.Optimize(ctx, runCfg); err != nil {
				b.Fatal(err)
			}
		}
		return res
	}
	b.Run("cold", func(b *testing.B) { run(b, cfg) })
	b.Run("delta", func(b *testing.B) {
		res := run(b, deltaCfg)
		b.ReportMetric(float64(res.ZonesReused), "zones-reused")
		b.ReportMetric(float64(res.ZonesResolved), "zones-resolved")
	})
}

// resultBytesNoRuntime renders a result's canonical bytes minus Runtime —
// the one field that reports wall time, not answer content (the dispatch
// equivalence tests strip it the same way).
func resultBytesNoRuntime(b *testing.B, res *Result) []byte {
	b.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		b.Fatal(err)
	}
	delete(m, "Runtime")
	out, err := json.Marshal(m)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// --- The cold request path --------------------------------------------------

// BenchmarkOptimizeCold is one cold solve at the service benchmark's
// request config (κ = 20 ps, |S| = 158, ε = 0.01, one worker) on s35932:
// the zone MOSP solves and the golden measurement that every uncached
// request runs.
func BenchmarkOptimizeCold(b *testing.B) {
	d, err := Benchmark("s35932")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Kappa: 20, Samples: 158, Epsilon: 0.01, Workers: 1}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := cloneForRun(d)
		b.StartTimer()
		if _, err := run.Optimize(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOptimizeColdAllocBudget pins what BenchmarkOptimizeCold's solve
// allocates once the pools are warm: the interval sweep builds lists only
// for the intervals it keeps, each zone's baseline is built once, and the
// zone graphs' weight slabs and the hot-spot scratch come from pools. It
// measured 42k allocations and 9.4 MB; with the lists of every interval,
// a baseline per instance and fresh buffers it took 344k and 34 MB.
func TestOptimizeColdAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	// One P, so every Get finds what the previous Put left in its slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d, err := Benchmark("s35932")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kappa: 20, Samples: 158, Epsilon: 0.01, Workers: 1}
	solve := func() (allocs uint64, mb float64) {
		run := cloneForRun(d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := run.Optimize(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	solve() // fills the pools
	if allocs, mb := solve(); allocs > 60000 || mb > 16 {
		t.Errorf("cold s35932 solve: %d allocations and %.1f MB, want ≤ 60000 and ≤ 16 MB", allocs, mb)
	} else {
		t.Logf("cold s35932 solve: %d allocations and %.1f MB", allocs, mb)
	}
}

// BenchmarkMeasure is the golden evaluation of s38417 as synthesized, whose
// cost is the power-grid transient of both clock edges.
func BenchmarkMeasure(b *testing.B) {
	d, err := Benchmark("s38417")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Measure(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The cache-hit request path ---------------------------------------------

// BenchmarkRequestKey derives the cache key of a serialized tree the way
// the service does for every request, hit or miss: one decode, the
// loader's checks and a hash of the canonical form, at the service
// benchmark's request config. s13207 is that benchmark's median request;
// s38417 is one of its largest.
func BenchmarkRequestKey(b *testing.B) {
	cfg := Config{Kappa: 20, Samples: 158, Epsilon: 0.01, Workers: 1}
	for _, name := range []string{"s13207", "s38417"} {
		d, err := Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		var tree bytes.Buffer
		if err := d.SaveTree(&tree); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ct, err := ReadCanonicalTree(tree.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ct.CacheKey(nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks --------------------------------------------

func BenchmarkMOSPSolve(b *testing.B) {
	g := &mosp.Graph{Baseline: make([]float64, 32)}
	for l := 0; l < 7; l++ {
		var layer []mosp.Vertex
		for v := 0; v < 4; v++ {
			w := make([]float64, 32)
			for s := range w {
				w[s] = float64((l*7+v*13+s*3)%50) + 1
			}
			layer = append(layer, mosp.Vertex{Weight: w})
		}
		g.Layers = append(g.Layers, layer)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mosp.Solve(context.Background(), g, mosp.Options{Epsilon: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpiceTransient(b *testing.B) {
	build := func() *spice.Circuit {
		c := spice.NewCircuit()
		prev := c.Node("pad")
		c.V(prev, 1.1)
		for i := 0; i < 50; i++ {
			n := c.Node(fmt.Sprintf("n%d", i))
			c.R(prev, n, 0.01)
			c.C(n, spice.Ground, 50)
			prev = n
		}
		c.I(prev, spice.Ground, waveform.Triangle(50, 10, 20, 3000))
		return c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build().Transient(context.Background(), 0, 300, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCTSSynthesize(b *testing.B) {
	lib := cell.DefaultLibrary()
	var sinks []cts.Sink
	for i := 0; i < 100; i++ {
		sinks = append(sinks, cts.Sink{X: float64(i%10) * 30, Y: float64(i/10) * 30, Cap: 8})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cts.Synthesize(sinks, lib, cts.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerturbAndTiming(b *testing.B) {
	d, err := Benchmark("s13207")
	if err != nil {
		b.Fatal(err)
	}
	p := variation.Params{Sigma: 0.05, N: 1, Kappa: 100, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := variation.MonteCarlo(context.Background(), d.Tree, p); err != nil {
			b.Fatal(err)
		}
		p.Seed++
	}
}

// BenchmarkPeakCurrent times the whole-tree peak evaluation — the golden
// scalar every Measure, yield sample and Monte Carlo instance computes —
// on a paper circuit and on a generated 2,048-leaf tree.
func BenchmarkPeakCurrent(b *testing.B) {
	d, err := Benchmark("s35932")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sinks := make([]cts.Sink, 2048)
	for i := range sinks {
		sinks[i] = cts.Sink{X: rng.Float64() * 900, Y: rng.Float64() * 900, Cap: 4 + 8*rng.Float64()}
	}
	gen, err := cts.Synthesize(sinks, cell.DefaultLibrary(), cts.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tree *clocktree.Tree
	}{{"s35932", d.Tree}, {"gen2048", gen}} {
		b.Run(c.name, func(b *testing.B) {
			tm := c.tree.ComputeTiming(clocktree.NominalMode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.tree.PeakCurrent(tm) <= 0 {
					b.Fatal("non-positive peak")
				}
			}
		})
	}
}

// --- Extension benchmarks ---------------------------------------------------

// BenchmarkBaselines compares the three prior-work polarity strategies and
// WaveMin on the golden evaluator: global split [22], per-zone split [23],
// two-corner knapsack [27], and the fine-grained optimizer.
func BenchmarkBaselines(b *testing.B) {
	d, err := Benchmark("s13207")
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.DefaultLibrary()
	sizing, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		b.Fatal(err)
	}
	golden := func(a polarity.Assignment) float64 {
		work := d.Tree.Clone()
		polarity.Apply(work, a)
		return work.PeakCurrent(work.ComputeTiming(clocktree.NominalMode))
	}
	b.Run("nieh22", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := polarity.NiehBaseline(d.Tree, sizing, clocktree.NominalMode)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(golden(a), "golden-peak-uA")
		}
	})
	b.Run("samanta23", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := polarity.SamantaBaseline(d.Tree, sizing, clocktree.NominalMode, 50)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(golden(a), "golden-peak-uA")
		}
	})
	for name, algo := range map[string]polarity.Algorithm{
		"peakmin27": polarity.ClkPeakMinBaseline,
		"wavemin":   polarity.ClkWaveMin,
	} {
		algo := algo
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := polarity.Optimize(context.Background(), d.Tree, polarity.Config{
					Library: sizing, Kappa: 20, Samples: 32, Epsilon: 0.01,
					Algorithm: algo, MaxIntervals: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(golden(res.Assignment), "golden-peak-uA")
			}
		})
	}
}

// BenchmarkSpiceCharacterize measures the transistor-level testbench.
func BenchmarkSpiceCharacterize(b *testing.B) {
	c := cell.DefaultLibrary().MustByName("INV_X8")
	for i := 0; i < b.N; i++ {
		if _, err := cell.SpiceCharacterize(c, cell.Rising, 8, 1.1, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXORPolarity measures the dynamic per-mode polarity extension.
func BenchmarkXORPolarity(b *testing.B) {
	d, err := Benchmark("s13207")
	if err != nil {
		b.Fatal(err)
	}
	domains, err := d.PartitionVoltageIslands(4)
	if err != nil {
		b.Fatal(err)
	}
	spec, _ := bench.SpecByName("s13207")
	modes := spec.Modes(domains, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := xorpol.Optimize(context.Background(), d.Tree, modes, xorpol.Config{Samples: 16})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WorstPeak, "worst-mode-peak-uA")
	}
}
