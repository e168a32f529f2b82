package yield

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/variation"
)

// ChunkSpec is the self-contained description of one sample batch: the
// candidate's optimized tree plus the sample range and the variation
// knobs. A worker needs nothing else — in particular, no state from other
// chunks — so chunks can run anywhere, in any order, any number of times.
type ChunkSpec struct {
	// Tree is the candidate's optimized clock tree, in the
	// wavemin-clocktree-v1 JSON format.
	Tree json.RawMessage `json:"tree"`
	// Candidate is the candidate's index in the run's candidate list.
	Candidate int `json:"candidate"`
	// Index is the chunk's index within the candidate's sample stream;
	// the aggregator folds chunks in this order and drops duplicates.
	Index int `json:"index"`
	// Start / N delimit the global sample range [Start, Start+N). Sample
	// seeds derive from the global sample index, so the statistics do not
	// depend on how the stream was cut into chunks.
	Start int `json:"start"`
	N     int `json:"n"`

	Sigma       float64 `json:"sigma"`
	Correlation float64 `json:"correlation"`
	Kappa       float64 `json:"kappa"`
	PeakCap     float64 `json:"peakCap,omitempty"`
	Seed        int64   `json:"seed"`
	// Mode is the power mode samples are timed in; nil means nominal.
	Mode *clocktree.Mode `json:"mode,omitempty"`
}

// Validate bounds a chunk spec: specs normally come from a trusted
// coordinator, but the executor is reachable through the open lease
// protocol, so it re-checks before burning CPU. σ, the correlation, κ and
// the peak cap get Params.Validate's bounds.
func (c *ChunkSpec) Validate() error {
	switch {
	case len(c.Tree) == 0:
		return fmt.Errorf("yield: chunk missing tree")
	case c.Candidate < 0 || c.Candidate >= MaxCandidates:
		return fmt.Errorf("yield: chunk candidate %d out of range", c.Candidate)
	case c.N < 1 || c.N > ChunkSize:
		return fmt.Errorf("yield: chunk size %d out of range (want 1..%d)", c.N, ChunkSize)
	case c.Start < 0 || c.Start > MaxSamples:
		return fmt.Errorf("yield: chunk start %d out of range", c.Start)
	case math.IsNaN(c.Sigma) || math.IsInf(c.Sigma, 0) || c.Sigma < 0 || c.Sigma > 1:
		return fmt.Errorf("yield: chunk sigma %g out of range", c.Sigma)
	case math.IsNaN(c.Correlation) || math.IsInf(c.Correlation, 0) || c.Correlation < 0 || c.Correlation > 1:
		return fmt.Errorf("yield: chunk correlation %g out of range", c.Correlation)
	case math.IsNaN(c.Kappa) || math.IsInf(c.Kappa, 0) || c.Kappa <= 0 || c.Kappa > 1e9:
		return fmt.Errorf("yield: chunk kappa %g out of range", c.Kappa)
	case math.IsNaN(c.PeakCap) || math.IsInf(c.PeakCap, 0) || c.PeakCap < 0 || c.PeakCap > 1e12:
		return fmt.Errorf("yield: chunk peakCap %g out of range", c.PeakCap)
	}
	if c.Mode != nil {
		if err := c.Mode.Validate(); err != nil {
			return fmt.Errorf("yield: chunk %w", err)
		}
	}
	return nil
}

// ChunkStats is a chunk's aggregate — plain sums, so any two executions
// of the same spec produce identical values, and the coordinator can fold
// chunks without seeing individual samples. The canonical wire form is
// encoding/json of this struct (fixed field order, shortest-round-trip
// floats).
type ChunkStats struct {
	Candidate int     `json:"candidate"`
	Index     int     `json:"index"`
	N         int     `json:"n"`
	OK        int     `json:"ok"` // samples meeting κ (and the peak cap)
	SumSkew   float64 `json:"sumSkew"`
	WorstSkew float64 `json:"worstSkew"`
	SumPeak   float64 `json:"sumPeak"`
	MaxPeak   float64 `json:"maxPeak"`
}

// Validate sanity-checks stats reported back over the wire against the
// spec they claim to answer.
func (s *ChunkStats) Validate(spec *ChunkSpec) error {
	switch {
	case s.Candidate != spec.Candidate || s.Index != spec.Index || s.N != spec.N:
		return fmt.Errorf("yield: chunk stats identity mismatch (got cand=%d idx=%d n=%d, want cand=%d idx=%d n=%d)",
			s.Candidate, s.Index, s.N, spec.Candidate, spec.Index, spec.N)
	case s.OK < 0 || s.OK > s.N:
		return fmt.Errorf("yield: chunk stats ok=%d out of range for n=%d", s.OK, s.N)
	case math.IsNaN(s.SumSkew) || math.IsInf(s.SumSkew, 0) ||
		math.IsNaN(s.WorstSkew) || math.IsInf(s.WorstSkew, 0) ||
		math.IsNaN(s.SumPeak) || math.IsInf(s.SumPeak, 0) ||
		math.IsNaN(s.MaxPeak) || math.IsInf(s.MaxPeak, 0):
		return fmt.Errorf("yield: chunk stats carry non-finite values")
	}
	return nil
}

// EvaluateChunk runs one chunk's samples over an already-parsed tree and
// returns the deterministic aggregate. One Scratch serves the whole
// chunk, so the per-sample cost is the timing/current evaluation alone —
// no tree clone per sample (BenchmarkYieldChunk pins this).
func EvaluateChunk(ctx context.Context, tree *clocktree.Tree, spec *ChunkSpec) (*ChunkStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mode := clocktree.NominalMode
	if spec.Mode != nil {
		mode = *spec.Mode
	}
	sc := variation.NewScratch(tree)
	rng := rand.New(rand.NewSource(1))
	// Seeding by (seed, candidate, global index) keeps each sample's draw
	// independent of chunk boundaries, placement and retries.
	candSeed := variation.InstanceSeed(spec.Seed, spec.Candidate)
	st := &ChunkStats{Candidate: spec.Candidate, Index: spec.Index, N: spec.N}
	for i := 0; i < spec.N; i++ {
		if i%16 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Reseeding in place is exactly rand.New(rand.NewSource(s)) —
		// minus the two allocations per sample.
		rng.Seed(variation.InstanceSeed(candSeed, spec.Start+i))
		inst := sc.Perturb(spec.Sigma, spec.Correlation, rng)
		tm := inst.ComputeTiming(mode)
		skew := tm.Skew(inst)
		peak := inst.PeakCurrent(tm)
		if skew <= spec.Kappa && (spec.PeakCap <= 0 || peak <= spec.PeakCap) {
			st.OK++
		}
		st.SumSkew += skew
		if skew > st.WorstSkew {
			st.WorstSkew = skew
		}
		st.SumPeak += peak
		if peak > st.MaxPeak {
			st.MaxPeak = peak
		}
	}
	return st, nil
}

// ExecuteChunk is the wire-facing executor: it parses the spec's tree and
// evaluates the chunk. This is what a dispatch worker (or the local
// fallback) runs for a leased yield chunk.
func ExecuteChunk(ctx context.Context, spec *ChunkSpec) (*ChunkStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tree, err := clocktree.ReadJSON(bytes.NewReader(spec.Tree), cell.SharedDefaultLibrary())
	if err != nil {
		return nil, fmt.Errorf("yield: chunk tree: %w", err)
	}
	return EvaluateChunk(ctx, tree, spec)
}
