package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// optResult is the part of a wavemin.Result the checks read.
type optResult struct {
	Before, After struct {
		PeakCurrent float64
		WorstSkew   float64
	}
	AlgorithmUsed string
	Degraded      bool
}

// checkOptResult verifies one optimization result: not degraded, answered
// by the rung the request configured, skew within κ, and peak current no
// worse than before. It returns the peak reduction in percent.
func checkOptResult(raw []byte, wantAlgo string) (float64, error) {
	var r optResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, fmt.Errorf("result: %w", err)
	}
	switch {
	case r.Degraded:
		return 0, fmt.Errorf("result degraded (answered by %s)", r.AlgorithmUsed)
	case r.AlgorithmUsed != wantAlgo:
		return 0, fmt.Errorf("answered by %q, want %q", r.AlgorithmUsed, wantAlgo)
	case r.After.WorstSkew > kappa:
		return 0, fmt.Errorf("skew %.3f ps exceeds κ=%g", r.After.WorstSkew, kappa)
	case r.After.PeakCurrent > r.Before.PeakCurrent:
		return 0, fmt.Errorf("peak current rose from %g to %g", r.Before.PeakCurrent, r.After.PeakCurrent)
	case r.Before.PeakCurrent <= 0:
		return 0, fmt.Errorf("non-positive baseline peak %g", r.Before.PeakCurrent)
	}
	return 100 * (r.Before.PeakCurrent - r.After.PeakCurrent) / r.Before.PeakCurrent, nil
}

// yieldReport is the part of a yield.Report the checks read.
type yieldReport struct {
	AlgorithmUsed string `json:"algorithmUsed"`
	Winner        int    `json:"winner"`
	Candidates    []struct {
		Label       string  `json:"label"`
		NominalSkew float64 `json:"nominalSkew"`
	} `json:"candidates"`
	Rounds        int             `json:"rounds"`
	SamplesUsed   int             `json:"samplesUsed"`
	SamplesBudget int             `json:"samplesBudget"`
	SamplesSaved  int             `json:"samplesSaved"`
	EarlyStopped  bool            `json:"earlyStopped"`
	Result        json.RawMessage `json:"result"`
}

// checkYieldReport verifies a yield report: the budget holds, the winner
// meets κ at nominal, and the winner's own result passes checkOptResult
// for the rung its knob variant configures ("fast" runs ClkWaveMin-f).
func checkYieldReport(raw []byte) (*yieldReport, float64, error) {
	var r yieldReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, 0, fmt.Errorf("yield report: %w", err)
	}
	switch {
	case r.AlgorithmUsed != "yield-mc":
		return nil, 0, fmt.Errorf("yield report answered by %q", r.AlgorithmUsed)
	case r.SamplesUsed > r.SamplesBudget:
		return nil, 0, fmt.Errorf("samplesUsed %d exceeds samplesBudget %d", r.SamplesUsed, r.SamplesBudget)
	case r.Winner < 0 || r.Winner >= len(r.Candidates):
		return nil, 0, fmt.Errorf("winner %d outside %d candidates", r.Winner, len(r.Candidates))
	}
	w := r.Candidates[r.Winner]
	if w.NominalSkew > kappa {
		return nil, 0, fmt.Errorf("winner nominal skew %.3f exceeds κ=%g", w.NominalSkew, kappa)
	}
	want := "ClkWaveMin"
	if strings.HasPrefix(w.Label, "fast") {
		want = "ClkWaveMin-f"
	}
	red, err := checkOptResult(r.Result, want)
	if err != nil {
		return nil, 0, fmt.Errorf("winner %q: %w", w.Label, err)
	}
	return &r, red, nil
}

// canonicalResult drops the wall-clock Runtime field so result bytes can
// be digested across runs (in-process solves record their own runtime).
func canonicalResult(raw []byte) []byte {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return raw
	}
	delete(m, "Runtime")
	if res, ok := m["result"].(map[string]any); ok {
		delete(res, "Runtime")
	}
	out, err := json.Marshal(m)
	if err != nil {
		return raw
	}
	return out
}
