// Package peakmin implements the comparison baseline ClkPeakMin (Jang,
// Joo & Kim, TCAD 2011 — the paper's reference [27]): buffer sizing and
// polarity assignment minimizing the coarse two-corner objective
//
//	max( Σ_{buffers} peak(φ(e_i)),  Σ_{inverters} peak(φ(e_i)) )
//
// i.e. all buffers are assumed to spike together at the rising clock edge
// and all inverters together at the falling edge, with no time structure.
// This is exactly the objective whose unawareness of arrival-time
// differences and non-leaf currents WaveMin fixes.
//
// Per [27] the problem is solved optimally in pseudo-polynomial time by a
// knapsack-style dynamic program over the discretized buffer-side sum.
package peakmin

import (
	"context"
	"fmt"
	"math"

	"wavemin/internal/faultinject"
	"wavemin/internal/obs"
)

// Option is one feasible (sink, cell) assignment.
type Option struct {
	Peak     float64 // the cell's peak supply current over [0,∞), µA
	IsBuffer bool    // true: counts into the buffer-side sum
}

// Solution is one pick per layer (sink).
type Solution struct {
	Picks  []int
	BufSum float64
	InvSum float64
	Max    float64 // max(BufSum, InvSum) — the PeakMin objective
}

// Solve runs the knapsack DP. unit is the discretization step for the
// buffer-side sum (µA); 0 picks ~1/2000 of the maximum possible sum. The
// result is optimal up to the discretization. Cancellation is checked at
// every layer of the DP.
func Solve(ctx context.Context, layers [][]Option, unit float64) (Solution, error) {
	if len(layers) == 0 {
		return Solution{}, fmt.Errorf("peakmin: no layers")
	}
	var maxBufSum float64
	for i, l := range layers {
		if len(l) == 0 {
			return Solution{}, fmt.Errorf("peakmin: layer %d empty (infeasible)", i)
		}
		layerMax := 0.0
		for _, o := range l {
			if o.Peak < 0 || math.IsNaN(o.Peak) || math.IsInf(o.Peak, 0) {
				return Solution{}, fmt.Errorf("peakmin: layer %d bad peak %g", i, o.Peak)
			}
			if o.IsBuffer && o.Peak > layerMax {
				layerMax = o.Peak
			}
		}
		maxBufSum += layerMax
	}
	if unit <= 0 {
		unit = maxBufSum / 2000
		if unit <= 0 {
			unit = 1
		}
	}
	states := int(maxBufSum/unit) + 2
	if sp := obs.FromContext(ctx); sp != nil {
		var opts int64
		for _, l := range layers {
			opts += int64(len(l))
		}
		sp.Count("peakmin.options", opts)
		sp.Count("peakmin.dp_states", int64(states)*int64(len(layers)))
	}

	const inf = math.MaxFloat64
	type pred struct {
		prevB int32
		opt   int16
	}
	// dp[b] = minimal inverter-side sum with buffer-side (discretized) sum
	// exactly b; preds reconstructs the choice path.
	dp := make([]float64, states)
	next := make([]float64, states)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	faultinject.At(faultinject.SitePeakminSolve)
	preds := make([][]pred, len(layers))
	for li, l := range layers {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		for i := range next {
			next[i] = inf
		}
		pr := make([]pred, states)
		for i := range pr {
			pr[i] = pred{prevB: -1, opt: -1}
		}
		for pb, inv := range dp {
			if inv == inf {
				continue
			}
			for oi, o := range l {
				nb, ninv := pb, inv
				if o.IsBuffer {
					nb = pb + int(o.Peak/unit+0.5)
					if nb >= states {
						nb = states - 1
					}
				} else {
					ninv = inv + o.Peak
				}
				if ninv < next[nb] {
					next[nb] = ninv
					pr[nb] = pred{prevB: int32(pb), opt: int16(oi)}
				}
			}
		}
		dp, next = next, dp
		preds[li] = pr
	}

	bestB, bestVal := -1, inf
	for b, inv := range dp {
		if inv == inf {
			continue
		}
		if v := math.Max(float64(b)*unit, inv); v < bestVal {
			bestB, bestVal = b, v
		}
	}
	if bestB < 0 {
		return Solution{}, fmt.Errorf("peakmin: no feasible state")
	}

	picks := make([]int, len(layers))
	for li, b := len(layers)-1, bestB; li >= 0; li-- {
		p := preds[li][b]
		if p.opt < 0 {
			return Solution{}, fmt.Errorf("peakmin: reconstruction failed at layer %d", li)
		}
		picks[li] = int(p.opt)
		b = int(p.prevB)
	}

	// Exact sums from the reconstructed picks.
	var bufSum, invSum float64
	for li, pi := range picks {
		o := layers[li][pi]
		if o.IsBuffer {
			bufSum += o.Peak
		} else {
			invSum += o.Peak
		}
	}
	return Solution{Picks: picks, BufSum: bufSum, InvSum: invSum, Max: math.Max(bufSum, invSum)}, nil
}

// SolveExhaustive is the brute-force oracle for tests.
func SolveExhaustive(layers [][]Option) (Solution, error) {
	if len(layers) == 0 {
		return Solution{}, fmt.Errorf("peakmin: no layers")
	}
	paths := 1
	for i, l := range layers {
		if len(l) == 0 {
			return Solution{}, fmt.Errorf("peakmin: layer %d empty", i)
		}
		paths *= len(l)
		if paths > 200_000 {
			return Solution{}, fmt.Errorf("peakmin: exhaustive refused")
		}
	}
	best := Solution{Max: math.Inf(1)}
	picks := make([]int, len(layers))
	var rec func(li int, bufSum, invSum float64)
	rec = func(li int, bufSum, invSum float64) {
		if li == len(layers) {
			if v := math.Max(bufSum, invSum); v < best.Max {
				best = Solution{Picks: append([]int(nil), picks...), BufSum: bufSum, InvSum: invSum, Max: v}
			}
			return
		}
		for oi, o := range layers[li] {
			picks[li] = oi
			if o.IsBuffer {
				rec(li+1, bufSum+o.Peak, invSum)
			} else {
				rec(li+1, bufSum, invSum+o.Peak)
			}
		}
	}
	rec(0, 0, 0)
	return best, nil
}
