package yield

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"wavemin"
	"wavemin/internal/clocktree"
	"wavemin/internal/variation"
)

// TestYieldChunkAllocBudget pins the Monte Carlo hot path at two levels.
//
// The sharp pin: variation.Scratch.Perturb — the per-sample redraw — must
// be allocation-free. This is the fix the scratch-tree rewrite bought:
// the old path cloned the whole tree per sample, O(nodes) allocations
// each; the scratch path redraws parasitics in place.
//
// The coarse pin: a whole chunk (ChunkSize samples of timing + peak
// current analysis) stays under a per-sample allocation budget with
// headroom, so an accidental reintroduction of per-sample tree copies or
// event slices — anywhere in the chunk loop, not just Perturb — fails
// loudly. The peak sweep's buffers are pooled, so under -race, where
// sync.Pool drops puts at random, only the sharp pin runs.
func TestYieldChunkAllocBudget(t *testing.T) {
	tree, _, _ := testCandidates(t)
	parsed, err := ParseTree(tree)
	if err != nil {
		t.Fatal(err)
	}

	sc := variation.NewScratch(parsed)
	rng := rand.New(rand.NewSource(1))
	perDraw := testing.AllocsPerRun(200, func() {
		sc.Perturb(0.08, 0.4, rng)
	})
	if perDraw > 0 {
		t.Errorf("Scratch.Perturb allocates %v per draw; the redraw must be in-place (0 allocs)", perDraw)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}

	spec := &ChunkSpec{
		Tree: tree, Candidate: 0, Index: 0, Start: 0, N: ChunkSize,
		Sigma: 0.08, Kappa: 200, Seed: 7,
	}
	ctx := context.Background()
	perChunk := testing.AllocsPerRun(5, func() {
		if _, err := EvaluateChunk(ctx, parsed, spec); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 6.7 allocs/sample: the timing arrays; the peak sweep
	// allocates nothing once its pool is filled. The budget leaves room
	// for one more while still catching a clone-per-sample, an event
	// slice per sample or a waveform-per-node regression on any
	// realistically sized tree.
	const perSampleBudget = 8
	if perSample := perChunk / ChunkSize; perSample > perSampleBudget {
		t.Errorf("chunk evaluation allocates %.0f per sample (budget %d)", perSample, perSampleBudget)
	}
}

// TestChunkSpecRejectsImpossibleSupply: the executor re-checks a leased
// spec's mode, so a supply the evaluator cannot time is a validation
// error (a bad_spec lease), not a panic that crashes the lease.
func TestChunkSpecRejectsImpossibleSupply(t *testing.T) {
	tree, _, _ := testCandidates(t)
	for _, v := range []float64{-1, 0, math.NaN(), math.Inf(1), 11} {
		spec := &ChunkSpec{Tree: tree, Candidate: 0, Index: 0, Start: 0, N: 4,
			Sigma: 0.08, Kappa: 200, Seed: 7,
			Mode: &clocktree.Mode{Name: "m", Supplies: map[string]float64{clocktree.DefaultDomain: v}}}
		if err := spec.Validate(); err == nil {
			t.Errorf("supply %g: Validate accepted the spec", v)
		}
		if _, err := ExecuteChunk(context.Background(), spec); err == nil {
			t.Errorf("supply %g: ExecuteChunk returned no error", v)
		}
	}
	ok := &ChunkSpec{Tree: tree, Candidate: 0, Index: 0, Start: 0, N: 4,
		Sigma: 0.08, Kappa: 200, Seed: 7,
		Mode: &clocktree.Mode{Name: "m", Supplies: map[string]float64{clocktree.DefaultDomain: 0.9}}}
	if _, err := ExecuteChunk(context.Background(), ok); err != nil {
		t.Fatalf("valid supply: %v", err)
	}
}

// TestEvaluateChunkHonorsPeakCap: the cap must gate OK counting without
// touching the skew statistics.
func TestEvaluateChunkHonorsPeakCap(t *testing.T) {
	tree, _, _ := testCandidates(t)
	parsed, err := ParseTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	base := &ChunkSpec{Tree: tree, Candidate: 0, Index: 0, Start: 0, N: ChunkSize,
		Sigma: 0.08, Kappa: 200, Seed: 7}
	uncapped, err := EvaluateChunk(context.Background(), parsed, base)
	if err != nil {
		t.Fatal(err)
	}
	// A cap below every observed peak zeroes OK; the largest valid cap,
	// far above any peak, reproduces the uncapped count.
	tight := *base
	tight.PeakCap = 1e-9
	st, err := EvaluateChunk(context.Background(), parsed, &tight)
	if err != nil {
		t.Fatal(err)
	}
	if st.OK != 0 {
		t.Fatalf("cap %g left %d samples passing (max peak %g)", tight.PeakCap, st.OK, st.MaxPeak)
	}
	if st.SumSkew != uncapped.SumSkew || st.WorstSkew != uncapped.WorstSkew {
		t.Fatal("peak cap changed skew statistics")
	}
	loose := *base
	loose.PeakCap = 1e12
	st, err = EvaluateChunk(context.Background(), parsed, &loose)
	if err != nil {
		t.Fatal(err)
	}
	if st.OK != uncapped.OK {
		t.Fatalf("unreachable cap changed OK: %d != %d", st.OK, uncapped.OK)
	}
}

// TestChunkSpecValidateRejectsHostileSpecs: the executor is reachable
// through the open lease protocol, so it must bound everything itself.
func TestChunkSpecValidateRejectsHostileSpecs(t *testing.T) {
	tree, _, _ := testCandidates(t)
	good := func() *ChunkSpec {
		return &ChunkSpec{Tree: tree, Candidate: 0, Index: 0, Start: 0, N: ChunkSize,
			Sigma: 0.08, Kappa: 200, Seed: 7}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	cases := []func(*ChunkSpec){
		func(c *ChunkSpec) { c.Tree = nil },
		func(c *ChunkSpec) { c.Candidate = -1 },
		func(c *ChunkSpec) { c.Candidate = MaxCandidates },
		func(c *ChunkSpec) { c.N = 0 },
		func(c *ChunkSpec) { c.N = ChunkSize + 1 },
		func(c *ChunkSpec) { c.Start = -5 },
		func(c *ChunkSpec) { c.Start = MaxSamples + 1 },
		func(c *ChunkSpec) { c.Sigma = math.NaN() },
		func(c *ChunkSpec) { c.Sigma = 3 },
		func(c *ChunkSpec) { c.Correlation = math.NaN() },
		func(c *ChunkSpec) { c.Correlation = math.Inf(1) },
		func(c *ChunkSpec) { c.Correlation = math.Inf(-1) },
		func(c *ChunkSpec) { c.Correlation = -3 },
		func(c *ChunkSpec) { c.Correlation = 7 },
		func(c *ChunkSpec) { c.Kappa = 0 },
		func(c *ChunkSpec) { c.Kappa = math.NaN() },
		func(c *ChunkSpec) { c.Kappa = math.Inf(1) },
		func(c *ChunkSpec) { c.Kappa = 1e300 },
		func(c *ChunkSpec) { c.Kappa = 2e9 },
		func(c *ChunkSpec) { c.PeakCap = -1 },
		func(c *ChunkSpec) { c.PeakCap = math.Inf(1) },
		func(c *ChunkSpec) { c.PeakCap = 2e12 },
	}
	for i, mut := range cases {
		c := good()
		mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: hostile chunk spec validated", i)
		}
	}
}

// TestChunkStatsValidate: stats from the wire must answer the spec they
// claim to.
func TestChunkStatsValidate(t *testing.T) {
	spec := &ChunkSpec{Candidate: 1, Index: 2, N: 64}
	good := ChunkStats{Candidate: 1, Index: 2, N: 64, OK: 60, SumSkew: 10, WorstSkew: 1, SumPeak: 5, MaxPeak: 1}
	if err := good.Validate(spec); err != nil {
		t.Fatalf("good stats rejected: %v", err)
	}
	bad := []ChunkStats{
		{Candidate: 0, Index: 2, N: 64, OK: 60},
		{Candidate: 1, Index: 3, N: 64, OK: 60},
		{Candidate: 1, Index: 2, N: 32, OK: 30},
		{Candidate: 1, Index: 2, N: 64, OK: 65},
		{Candidate: 1, Index: 2, N: 64, OK: -1},
		{Candidate: 1, Index: 2, N: 64, OK: 60, SumSkew: math.NaN()},
		{Candidate: 1, Index: 2, N: 64, OK: 60, MaxPeak: math.Inf(1)},
	}
	for i, st := range bad {
		if err := st.Validate(spec); err == nil {
			t.Errorf("case %d: hostile stats validated: %+v", i, st)
		}
	}
}

// TestEvaluateChunkBitsPinned pins the exact aggregate two chunk specs
// produce on the s15850 paper circuit: a whole nominal chunk, and a short
// chunk further down the stream with a peak cap, no correlation and a
// 0.9 V mode. The wire form is encoding/json's shortest round-trip
// floats, so equal bytes mean equal bits.
func TestEvaluateChunkBitsPinned(t *testing.T) {
	d, err := wavemin.Benchmark("s15850")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveTree(&buf); err != nil {
		t.Fatal(err)
	}
	tree, err := ParseTree(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	low := clocktree.Mode{Name: "low", Supplies: map[string]float64{clocktree.DefaultDomain: 0.9}}
	for _, c := range []struct {
		spec ChunkSpec
		want string
	}{
		{ChunkSpec{Tree: buf.Bytes(), Candidate: 1, Index: 0, Start: 0, N: ChunkSize,
			Sigma: 0.08, Correlation: 0.4, Kappa: 60, Seed: 7},
			`{"candidate":1,"index":0,"n":64,"ok":34,"sumSkew":3527.7200518262357,"worstSkew":131.96060448353103,"sumPeak":808842.5706868041,"maxPeak":16707.645403309652}`},
		{ChunkSpec{Tree: buf.Bytes(), Candidate: 2, Index: 5, Start: 320, N: 48,
			Sigma: 0.05, Kappa: 70, PeakCap: 9500, Seed: 41, Mode: &low},
			`{"candidate":2,"index":5,"n":48,"ok":16,"sumSkew":2994.1025125024335,"worstSkew":129.60190613982536,"sumPeak":429995.4284851231,"maxPeak":11066.36706865716}`},
	} {
		st, err := EvaluateChunk(context.Background(), tree, &c.spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("chunk %d/%d: stats %s, pinned %s", c.spec.Candidate, c.spec.Index, got, c.want)
		}
	}
}
