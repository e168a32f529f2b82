package yield

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/obs"
	"wavemin/internal/parallel"
)

// Runner evaluates a batch of chunk specs — locally, or fanned out over
// the dispatch fleet as sub-leases of the parent yield job. The returned
// stats may arrive in any order (the aggregator keys on candidate and
// chunk index); a runner may even deliver duplicates (a retried chunk
// observed twice), which the aggregator drops. A runner must not drop
// chunks: every spec needs exactly one (or more) stats, or an error.
type Runner interface {
	RunChunks(ctx context.Context, specs []*ChunkSpec) ([]*ChunkStats, error)
}

// LocalRunner evaluates chunks in-process with a bounded worker pool —
// the pure-library path, and the reference the distributed path must
// match byte-for-byte.
type LocalRunner struct {
	Workers int // 0 = GOMAXPROCS, 1 = serial
}

// RunChunks implements Runner. Each chunk parses its own tree — the same
// work a remote worker would do — so local and dispatched runs share one
// code path and one set of bytes.
func (r *LocalRunner) RunChunks(ctx context.Context, specs []*ChunkSpec) ([]*ChunkStats, error) {
	out := make([]*ChunkStats, len(specs))
	err := parallel.ForEach(ctx, r.Workers, len(specs), func(i int) error {
		st, cerr := ExecuteChunk(ctx, specs[i])
		if cerr != nil {
			return cerr
		}
		out[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CandidateStats is one candidate's final accounting in the result.
type CandidateStats struct {
	Index         int     `json:"index"`
	Label         string  `json:"label"`
	AlgorithmUsed string  `json:"algorithmUsed"`
	Samples       int     `json:"samples"`
	OK            int     `json:"ok"`
	Yield         float64 `json:"yield"`
	CILow         float64 `json:"ciLow"`
	CIHigh        float64 `json:"ciHigh"`
	MeanSkew      float64 `json:"meanSkew"`
	WorstSkew     float64 `json:"worstSkew"`
	MeanPeak      float64 `json:"meanPeak"`
	MaxPeak       float64 `json:"maxPeak"`
	NominalSkew   float64 `json:"nominalSkew"`
	NominalPeak   float64 `json:"nominalPeak"`
	// EliminatedRound is the 1-based round this candidate's CI upper
	// bound fell below the best lower bound; 0 = survived to the end.
	EliminatedRound int `json:"eliminatedRound,omitempty"`
}

// Report is the yield run's result — the bytes POST /v1/optimize stores
// and the cache replays. Everything here is a pure function of
// (tree, config, modes, Params); nothing wall-clock- or topology-shaped
// may enter.
type Report struct {
	// Mode distinguishes yield results from plain optimization results
	// in the shared result cache and job registry.
	Mode string `json:"mode"`
	// AlgorithmUsed decorates the job view ("yield-mc").
	AlgorithmUsed string `json:"algorithmUsed"`
	// Winner indexes Candidates; WinnerLabel repeats its label.
	Winner      int    `json:"winner"`
	WinnerLabel string `json:"winnerLabel"`

	Kappa      float64          `json:"kappa"`
	PeakCap    float64          `json:"peakCap,omitempty"`
	Candidates []CandidateStats `json:"candidates"`
	// RejectedNominal counts knob variants dropped before sampling
	// (κ-violating at nominal, or out-of-range configs).
	RejectedNominal int `json:"rejectedNominal,omitempty"`

	Rounds        int  `json:"rounds"`
	SamplesUsed   int  `json:"samplesUsed"`
	SamplesBudget int  `json:"samplesBudget"`
	SamplesSaved  int  `json:"samplesSaved"`
	EarlyStopped  bool `json:"earlyStopped"`

	// Result is the winning candidate's canonical optimization result
	// (the same bytes a plain POST /v1/optimize with that candidate's
	// config would have produced).
	Result json.RawMessage `json:"result"`
}

// AlgorithmYieldMC is the Report.AlgorithmUsed / job decoration value.
const AlgorithmYieldMC = "yield-mc"

// candAgg folds one candidate's chunks. Chunks land keyed by index (so a
// retried duplicate overwrites its identical twin instead of
// double-counting samples) and are summed in index order at snapshot
// time, making every aggregate independent of arrival order.
type candAgg struct {
	issued int                 // chunks issued so far
	chunks map[int]*ChunkStats // by chunk index
}

func (a *candAgg) add(st *ChunkStats) {
	if a.chunks == nil {
		a.chunks = make(map[int]*ChunkStats)
	}
	a.chunks[st.Index] = st
}

// fold sums the received chunks in canonical (ascending index) order.
func (a *candAgg) fold() (samples, ok int, sumSkew, worstSkew, sumPeak, maxPeak float64) {
	idxs := make([]int, 0, len(a.chunks))
	for i := range a.chunks {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		st := a.chunks[i]
		samples += st.N
		ok += st.OK
		sumSkew += st.SumSkew
		sumPeak += st.SumPeak
		if st.WorstSkew > worstSkew {
			worstSkew = st.WorstSkew
		}
		if st.MaxPeak > maxPeak {
			maxPeak = st.MaxPeak
		}
	}
	return
}

// Run races the candidates under Monte Carlo sampling and returns the
// deterministic report. rejected is the count of variants dropped during
// candidate generation (it rides into the report).
//
// The loop is round-based: each round issues a deterministic quota of
// chunks for every surviving candidate (doubling each round), waits for
// all of them, and then decides — eliminate candidates whose Wilson upper
// bound is below the best lower bound, stop when one candidate remains,
// when every surviving interval is tighter than ε, or when the budget is
// spent. All decisions read only round-complete aggregates, so the
// report's bytes cannot depend on chunk timing.
//
// mode is the power mode samples are timed in (nil = nominal); it must be
// the mode the candidates' nominal metrics were computed in.
func Run(ctx context.Context, cands []Candidate, p Params, rejected int, mode *clocktree.Mode, runner Runner) (*Report, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("yield: no candidates meet kappa=%g at nominal (%d rejected)", p.Kappa, rejected)
	}
	if len(cands) > MaxCandidates {
		return nil, fmt.Errorf("yield: %d candidates exceeds the limit of %d", len(cands), MaxCandidates)
	}
	ctx, sp := obs.Start(ctx, "yield.run")
	defer sp.End()
	sp.Count("yield.candidates", int64(len(cands)))

	n := len(cands)
	z := zScore(p.Confidence)
	budgetChunks := chunkCount(p.Samples)
	aggs := make([]*candAgg, n)
	for i := range aggs {
		aggs[i] = &candAgg{}
	}
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	elim := make([]int, n)

	rounds, chunksIssued := 0, 0
	quota := baseRoundChunks
	for {
		// Issue this round's chunks for every surviving candidate with
		// budget left.
		var specs []*ChunkSpec
		for i := range cands {
			if !live[i] || aggs[i].issued >= budgetChunks {
				continue
			}
			take := quota
			if rem := budgetChunks - aggs[i].issued; take > rem {
				take = rem
			}
			for k := 0; k < take; k++ {
				idx := aggs[i].issued + k
				start, cn := chunkBounds(idx, p.Samples)
				specs = append(specs, &ChunkSpec{
					Tree:        cands[i].TreeJSON,
					Candidate:   i,
					Index:       idx,
					Start:       start,
					N:           cn,
					Sigma:       p.Sigma,
					Correlation: p.Correlation,
					Kappa:       p.Kappa,
					PeakCap:     p.PeakCap,
					Seed:        p.Seed,
					Mode:        mode,
				})
			}
			aggs[i].issued += take
		}
		if len(specs) == 0 {
			break // every surviving candidate exhausted its budget
		}
		rounds++
		chunksIssued += len(specs)
		stats, err := runner.RunChunks(ctx, specs)
		if err != nil {
			return nil, err
		}
		for si, st := range stats {
			if st == nil {
				return nil, fmt.Errorf("yield: runner dropped chunk %d of round %d", si, rounds)
			}
			if st.Candidate < 0 || st.Candidate >= n {
				return nil, fmt.Errorf("yield: runner returned stats for unknown candidate %d", st.Candidate)
			}
			aggs[st.Candidate].add(st)
		}
		// Round barrier passed: decide on the deterministic aggregates.
		maxLo := -1.0
		los := make([]float64, n)
		his := make([]float64, n)
		for i := range cands {
			if !live[i] {
				continue
			}
			samples, ok, _, _, _, _ := aggs[i].fold()
			los[i], his[i] = Wilson(ok, samples, z)
			if los[i] > maxLo {
				maxLo = los[i]
			}
		}
		countLive := 0
		for i := range cands {
			if !live[i] {
				continue
			}
			if his[i] < maxLo {
				live[i] = false
				elim[i] = rounds
				continue
			}
			countLive++
		}
		if countLive <= 1 {
			break // unique winner separated
		}
		if p.Epsilon > 0 {
			tight := true
			for i := range cands {
				if live[i] && (his[i]-los[i])/2 > p.Epsilon {
					tight = false
					break
				}
			}
			if tight {
				break
			}
		}
		quota *= 2
	}

	// Final accounting. The winner is the surviving candidate with the
	// highest point estimate; ties break to the lower index (candidate
	// order is deterministic, so this is too).
	rep := &Report{
		Mode:            "yield",
		AlgorithmUsed:   AlgorithmYieldMC,
		Kappa:           p.Kappa,
		PeakCap:         p.PeakCap,
		RejectedNominal: rejected,
		Rounds:          rounds,
		SamplesBudget:   n * p.Samples,
	}
	winner, winnerYield := -1, -1.0
	for i, c := range cands {
		samples, ok, sumSkew, worstSkew, sumPeak, maxPeak := aggs[i].fold()
		lo, hi := Wilson(ok, samples, z)
		cs := CandidateStats{
			Index:           i,
			Label:           c.Label,
			AlgorithmUsed:   c.AlgorithmUsed,
			Samples:         samples,
			OK:              ok,
			CILow:           lo,
			CIHigh:          hi,
			WorstSkew:       worstSkew,
			MaxPeak:         maxPeak,
			NominalSkew:     c.NominalSkew,
			NominalPeak:     c.NominalPeak,
			EliminatedRound: elim[i],
		}
		if samples > 0 {
			cs.Yield = float64(ok) / float64(samples)
			cs.MeanSkew = sumSkew / float64(samples)
			cs.MeanPeak = sumPeak / float64(samples)
		}
		rep.Candidates = append(rep.Candidates, cs)
		rep.SamplesUsed += samples
		if live[i] && cs.Yield > winnerYield {
			winner, winnerYield = i, cs.Yield
		}
	}
	if winner < 0 {
		// Unreachable: the best candidate can never be eliminated by its
		// own lower bound. Guard anyway — a report must name a winner.
		winner = 0
	}
	rep.Winner = winner
	rep.WinnerLabel = cands[winner].Label
	rep.Result = cands[winner].ResultJSON
	rep.SamplesSaved = rep.SamplesBudget - rep.SamplesUsed
	rep.EarlyStopped = rep.SamplesSaved > 0
	sp.Count("yield.chunks", int64(chunksIssued))
	sp.Count("yield.rounds", int64(rounds))
	sp.Count("yield.samples_used", int64(rep.SamplesUsed))
	sp.Count("yield.samples_saved", int64(rep.SamplesSaved))
	if rep.EarlyStopped {
		sp.Count("yield.early_stop_round", int64(rounds))
	}
	return rep, nil
}

// ParseTree parses canonical tree bytes with the shared default cell
// library — a convenience for runners that pre-parse candidate trees.
func ParseTree(treeJSON []byte) (*clocktree.Tree, error) {
	return clocktree.ReadJSON(bytes.NewReader(treeJSON), cell.SharedDefaultLibrary())
}
