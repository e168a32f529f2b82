package yield

import (
	"context"
	"math"
	"math/rand"
	"testing"

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
// headroom, so an accidental reintroduction of per-sample tree copies —
// anywhere in the chunk loop, not just Perturb — fails loudly.
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
	// Measured 7.7 allocs/sample: the timing arrays and the peak sweep's
	// one event slice. The budget leaves room for a few more while still
	// catching a clone-per-sample or a waveform-per-node regression on
	// any realistically sized tree.
	const perSampleBudget = 16
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
	// A cap below every observed peak zeroes OK; an impossible-to-hit cap
	// reproduces the uncapped count.
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
	loose.PeakCap = math.MaxFloat64 / 2
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
		func(c *ChunkSpec) { c.Kappa = 0 },
		func(c *ChunkSpec) { c.Kappa = math.NaN() },
		func(c *ChunkSpec) { c.PeakCap = -1 },
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
