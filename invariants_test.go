package wavemin

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/cts"
	"wavemin/internal/powergrid"
)

// propSpecs draws n randomized benchmark specs from a fixed master seed.
// Each spec's sink placement is itself seeded from its name (see
// bench.Spec), so one master seed pins the whole family and failures
// reproduce by name.
func propSpecs(n int) []bench.Spec {
	rng := rand.New(rand.NewSource(0x57A7E))
	specs := make([]bench.Spec, n)
	for i := range specs {
		leaves := 8 + rng.Intn(17) // 8..24 leaves
		die := 80 + 10*float64(rng.Intn(9))
		specs[i] = bench.Spec{
			Name:       fmt.Sprintf("prop-%02d", i),
			NumLeaves:  leaves,
			TargetN:    leaves + rng.Intn(leaves/2+1),
			DieW:       die,
			DieH:       die,
			MinSinkCap: 4,
			MaxSinkCap: 12,
			Clustered:  rng.Intn(2) == 1,
		}
	}
	return specs
}

// propDesign synthesizes a Design for a randomized spec, mirroring what
// Benchmark() does for the named circuits.
func propDesign(t *testing.T, spec bench.Spec) *Design {
	t.Helper()
	lib := cell.DefaultLibrary()
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := spec.Synthesize(lib, opt)
	if err != nil {
		t.Fatalf("%s: synthesize: %v", spec.Name, err)
	}
	grid, err := powergrid.New(spec.DieW, spec.DieH, powergrid.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: grid: %v", spec.Name, err)
	}
	return &Design{Tree: tree, Grid: grid, Modes: []Mode{NominalMode}, lib: lib,
		dieW: spec.DieW, dieH: spec.DieH}
}

// closeRel reports a ≈ b within relative tolerance tol (absolute near 0).
func closeRel(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return diff <= tol
	}
	return diff <= tol*scale
}

// TestInvariantProperties is the property suite over randomized benches:
// for every design and every optimizer, (1) the optimized tree meets the
// skew bound κ in every mode (WorstSkew is the max over modes), (2) the
// reported After metrics equal re-measuring the committed tree — i.e. the
// Result describes the assignment actually returned — and (3) the peaks
// order as peak(WaveMin) ≤ peak(PeakMin) ≤ peak(unmodified).
func TestInvariantProperties(t *testing.T) {
	const (
		kappa   = 20.0
		tol     = 1e-9 // reported-vs-recomputed: same arithmetic, same bytes
		skewTol = 1e-6
	)
	for _, spec := range propSpecs(6) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			peaks := make(map[Algorithm]float64)
			var before float64
			for _, algo := range []Algorithm{PeakMin, WaveMin} {
				d := propDesign(t, spec)
				cfg := Config{Kappa: kappa, Samples: 32, MaxIntervals: 4, Algorithm: algo}
				res, err := d.Optimize(ctx, cfg)
				if err != nil {
					t.Fatalf("%v: %v", algo, err)
				}
				// (1) Skew bound honored after optimization.
				if res.After.WorstSkew > kappa+skewTol {
					t.Errorf("%v: skew %g exceeds κ=%g", algo, res.After.WorstSkew, kappa)
				}
				// (2) The Result matches the committed tree.
				m, err := d.Measure(ctx)
				if err != nil {
					t.Fatalf("%v: measure: %v", algo, err)
				}
				if !closeRel(m.PeakCurrent, res.After.PeakCurrent, tol) {
					t.Errorf("%v: reported peak %g != recomputed %g", algo, res.After.PeakCurrent, m.PeakCurrent)
				}
				if !closeRel(m.WorstSkew, res.After.WorstSkew, tol) {
					t.Errorf("%v: reported skew %g != recomputed %g", algo, res.After.WorstSkew, m.WorstSkew)
				}
				peaks[algo] = res.After.PeakCurrent
				before = res.Before.PeakCurrent
			}
			// (3) The optimizer hierarchy: WaveMin refines PeakMin's
			// objective, and both only ever commit an improvement over the
			// unmodified tree.
			if peaks[WaveMin] > peaks[PeakMin]+tol {
				t.Errorf("peak(WaveMin)=%g > peak(PeakMin)=%g", peaks[WaveMin], peaks[PeakMin])
			}
			if peaks[PeakMin] > before+tol {
				t.Errorf("peak(PeakMin)=%g > peak(unmodified)=%g", peaks[PeakMin], before)
			}
		})
	}
}

// TestInvariantPropertiesMultiMode repeats the skew and recompute checks
// on a multi-mode design: the bound must hold in the worst mode, after ADB
// insertion and retuning.
func TestInvariantPropertiesMultiMode(t *testing.T) {
	const kappa = 16.0
	spec, ok := bench.SpecByName("s15850")
	if !ok {
		t.Fatal("missing spec s15850")
	}
	d, err := Benchmark(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	names, err := d.PartitionVoltageIslands(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetModes(spec.Modes(names, 2)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := d.Optimize(ctx, Config{Kappa: kappa, Samples: 16, MaxIntersections: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.After.WorstSkew > kappa+1e-6 {
		t.Errorf("multi-mode skew %g exceeds κ=%g", res.After.WorstSkew, kappa)
	}
	if res.After.PeakCurrent > res.Before.PeakCurrent+1e-9 {
		t.Errorf("multi-mode peak regressed: %g -> %g", res.Before.PeakCurrent, res.After.PeakCurrent)
	}
	m, err := d.Measure(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !closeRel(m.PeakCurrent, res.After.PeakCurrent, 1e-9) {
		t.Errorf("reported peak %g != recomputed %g", res.After.PeakCurrent, m.PeakCurrent)
	}
	if !closeRel(m.WorstSkew, res.After.WorstSkew, 1e-9) {
		t.Errorf("reported skew %g != recomputed %g", res.After.WorstSkew, m.WorstSkew)
	}
}
