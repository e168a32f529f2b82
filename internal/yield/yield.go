// Package yield implements the statistical yield optimization mode: given
// a design, a skew bound κ, and an optional peak-current cap, it evaluates
// candidate assignments (the WaveMin result plus perturbed-knob
// alternates) under seeded Monte Carlo process variation and returns the
// candidate maximizing estimated yield, with a Wilson confidence interval
// per candidate.
//
// The sampling plan is built for the dispatch fleet: samples are batched
// into fixed-size chunks whose statistics are a pure function of
// (seed, candidate, sample index) — never of which worker ran the chunk,
// in what order, or how many times (a retried chunk reproduces the same
// bytes, and the aggregator folds chunks in index order and drops
// duplicates). The whole run is therefore bitwise deterministic at any
// worker count, chunk placement, or retry schedule, which is what lets
// yield results live in the content-addressed result cache.
//
// Early stopping is round-based: every round issues a deterministic quota
// of chunks per surviving candidate, waits for all of them, and then — on
// the deterministic aggregate — eliminates candidates whose CI upper
// bound falls below the best lower bound, stopping when a unique winner
// is separated or every surviving interval is tighter than ε.
package yield

import (
	"fmt"
	"math"
	"strconv"

	"wavemin/internal/canon"
	"wavemin/internal/rescache"
)

// KeyFormat tags the extended content key of a yield run (see Params.Key).
const KeyFormat = "wavemin-yieldkey-v1"

// ChunkSize is the canonical sample-batch width. It is part of the
// algorithm, not an operator knob: chunk boundaries decide the float
// summation order inside a chunk, so changing it would change result
// bytes. Sixty-four samples keeps a chunk in the tens of milliseconds on
// the synthetic circuits — long enough to amortize lease overhead, short
// enough that a lapsed lease wastes little work.
const ChunkSize = 64

// baseRoundChunks is the per-candidate chunk quota of round 1; the quota
// doubles every round so large budgets need O(log n) round barriers.
const baseRoundChunks = 2

// MaxSamples bounds the per-candidate sample budget a request may ask
// for: a hostile "samples": 1e9 must be a 400, not a fleet-wide DoS.
const MaxSamples = 1 << 20

// Defaults for zero-valued Params fields.
const (
	DefaultSigma      = 0.05
	DefaultSamples    = 1024
	DefaultEpsilon    = 0.02
	DefaultConfidence = 0.95
	DefaultCandidates = 4
	DefaultSeed       = 1
)

// Params are the semantic knobs of one yield run. Every field enters the
// extended content key: two requests with equal base keys and equal
// Params get byte-identical results, and anything execution-shaped
// (worker count, chunk placement, dispatch topology) is deliberately
// absent.
type Params struct {
	// Sigma is the relative process-variation σ (default 0.05).
	Sigma float64
	// Correlation in [0,1] is the die-wide (correlated) share of σ.
	Correlation float64
	// Kappa is the skew bound a sample must meet to count as good, ps.
	// Required: the server defaults it to the optimization config's κ.
	Kappa float64
	// PeakCap, when > 0, additionally requires each sample's peak current
	// to stay at or below it, µA.
	PeakCap float64
	// Samples is the Monte Carlo budget per candidate (default 1024).
	Samples int
	// Epsilon is the early-stop CI half-width target: once every
	// surviving candidate's interval is tighter than ε, further samples
	// cannot change the ranking materially and the run stops. 0 disables
	// the width-based stop (elimination still applies), so ε=0 is the
	// "full budget" reference a seeded early-stop run must agree with.
	Epsilon float64
	// Confidence is the two-sided Wilson interval confidence
	// (default 0.95).
	Confidence float64
	// Candidates is how many assignment candidates to race: the base
	// config's result plus Candidates−1 deterministic knob alternates
	// (default 4, max MaxCandidates).
	Candidates int
	// Seed seeds the sample stream (default 1).
	Seed int64
}

// WithDefaults returns p with zero-valued knobs replaced by the defaults.
// Kappa has no default here — the server injects the optimization κ —
// and neither has Epsilon: 0 is meaningful (disable the width stop), so
// the server's decode layer injects DefaultEpsilon only when the field
// is absent.
func (p Params) WithDefaults() Params {
	if p.Sigma == 0 {
		p.Sigma = DefaultSigma
	}
	if p.Samples == 0 {
		p.Samples = DefaultSamples
	}
	if p.Confidence == 0 {
		p.Confidence = DefaultConfidence
	}
	if p.Candidates == 0 {
		p.Candidates = DefaultCandidates
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	return p
}

// Validate rejects nonsensical parameters with a descriptive error —
// the request decoder turns each into a structured 400.
func (p Params) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("yield: "+format, args...)
	}
	switch {
	case math.IsNaN(p.Sigma) || math.IsInf(p.Sigma, 0) || p.Sigma < 0 || p.Sigma > 1:
		return bad("invalid sigma %g (want 0 <= sigma <= 1)", p.Sigma)
	case math.IsNaN(p.Correlation) || math.IsInf(p.Correlation, 0) || p.Correlation < 0 || p.Correlation > 1:
		return bad("invalid correlation %g (want 0 <= correlation <= 1)", p.Correlation)
	case math.IsNaN(p.Kappa) || math.IsInf(p.Kappa, 0) || p.Kappa <= 0 || p.Kappa > 1e9:
		return bad("invalid kappa %g ps (want 0 < kappa <= 1e9)", p.Kappa)
	case math.IsNaN(p.PeakCap) || math.IsInf(p.PeakCap, 0) || p.PeakCap < 0 || p.PeakCap > 1e12:
		return bad("invalid peakCap %g µA (want 0 <= peakCap <= 1e12; 0 disables the cap)", p.PeakCap)
	case p.Samples < 1 || p.Samples > MaxSamples:
		return bad("invalid samples %d (want 1 <= samples <= %d)", p.Samples, MaxSamples)
	case math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) || p.Epsilon < 0 || p.Epsilon >= 0.5:
		return bad("invalid epsilon %g (want 0 <= epsilon < 0.5; 0 disables the width stop)", p.Epsilon)
	case math.IsNaN(p.Confidence) || p.Confidence < 0.5 || p.Confidence > 0.9999:
		return bad("invalid confidence %g (want 0.5 <= confidence <= 0.9999)", p.Confidence)
	case p.Candidates < 1 || p.Candidates > MaxCandidates:
		return bad("invalid candidates %d (want 1 <= candidates <= %d)", p.Candidates, MaxCandidates)
	}
	return nil
}

// canonical renders the semantic knobs in the fixed order and float
// formatting the extended content key hashes. Chunking, worker counts,
// and dispatch topology never appear here — that is the cache-key
// contract: they cannot change the bytes, so they must not change the key.
func (p Params) canonical() string {
	b := make([]byte, 0, 128)
	b = append(b, "sigma="...)
	b = canon.AppendFloat(b, p.Sigma)
	b = append(b, ";corr="...)
	b = canon.AppendFloat(b, p.Correlation)
	b = append(b, ";kappa="...)
	b = canon.AppendFloat(b, p.Kappa)
	b = append(b, ";peakcap="...)
	b = canon.AppendFloat(b, p.PeakCap)
	b = append(b, ";samples="...)
	b = canon.AppendInt(b, p.Samples)
	b = append(b, ";eps="...)
	b = canon.AppendFloat(b, p.Epsilon)
	b = append(b, ";conf="...)
	b = canon.AppendFloat(b, p.Confidence)
	b = append(b, ";cand="...)
	b = canon.AppendInt(b, p.Candidates)
	b = append(b, ";seed="...)
	b = strconv.AppendInt(b, p.Seed, 10)
	return string(b)
}

// Key derives the extended content key of a yield run: the base
// optimization key (tree + config + modes) extended with the canonical
// yield knobs under the KeyFormat tag. Same keyspace as the primary keys
// (hex sha256), so every cache tier and the shard router accept it.
func (p Params) Key(baseKey string) string {
	return rescache.ExtendKey(baseKey, KeyFormat, p.canonical())
}

// zScore converts a two-sided confidence level to the normal quantile
// Wilson needs: z = Φ⁻¹((1+c)/2) = √2·erfinv(c).
func zScore(confidence float64) float64 {
	return math.Sqrt2 * math.Erfinv(confidence)
}

// Wilson returns the Wilson score interval for ok successes in n trials
// at normal quantile z, clamped to [0, 1]. For fixed p̂ the width shrinks
// monotonically in n (the invariant suite pins this), and unlike the
// normal approximation it stays honest at p̂ near 0 or 1 — exactly where
// high-yield candidates live.
func Wilson(ok, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(ok) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - half) / denom
	hi = (center + half) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// chunkCount is how many chunks a per-candidate budget of n samples
// needs; the last chunk may be partial.
func chunkCount(n int) int {
	return (n + ChunkSize - 1) / ChunkSize
}

// chunkBounds returns the sample range [start, start+n) of chunk idx
// under a per-candidate budget.
func chunkBounds(idx, budget int) (start, n int) {
	start = idx * ChunkSize
	n = ChunkSize
	if start+n > budget {
		n = budget - start
	}
	return start, n
}
