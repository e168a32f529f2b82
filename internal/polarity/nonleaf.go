package polarity

import (
	"context"
	"fmt"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
)

// NonLeafResult reports OptimizeWithNonLeafFlips.
type NonLeafResult struct {
	// Flips lists the internal nodes whose buffers were replaced by
	// equal-drive inverters, in the order committed.
	Flips []clocktree.NodeID
	// Leaf is the final leaf assignment (computed after the flips).
	Leaf *Result
	// GoldenPeak is the evaluated total-waveform peak of the final
	// configuration, µA.
	GoldenPeak float64
}

// OptimizeWithNonLeafFlips extends polarity assignment to non-leaf
// buffering elements, after Lu & Taskin (ISQED 2010 — the paper's
// reference [28]): internal buffers may also become inverters, moving
// their own supply spikes to the opposite edge. The paper notes this buys
// a further few percent of peak at some skew cost; here every candidate
// flip re-runs the leaf-level WaveMin (the leaves' input edges and
// feasible sets change under them) and is kept only when the golden
// evaluated peak improves.
//
// Greedy: at most maxFlips internal nodes are flipped, best-first. A flip
// whose re-optimization fails is skipped as infeasible, unless ctx is done:
// then its error is returned. The input tree is not modified; apply with
// ApplyNonLeaf.
func OptimizeWithNonLeafFlips(ctx context.Context, t *clocktree.Tree, fullLib *cell.Library, cfg Config, maxFlips int) (*NonLeafResult, error) {
	if maxFlips < 0 {
		return nil, fmt.Errorf("polarity: negative maxFlips")
	}
	evaluate := func(flips []clocktree.NodeID) (*Result, float64, error) {
		work := t.Clone()
		for _, id := range flips {
			inv, err := invertingTwin(fullLib, work.Node(id).Cell)
			if err != nil {
				return nil, 0, err
			}
			work.SetCell(id, inv)
		}
		res, err := Optimize(ctx, work, cfg)
		if err != nil {
			return nil, 0, err
		}
		Apply(work, res.Assignment)
		tm := work.ComputeTiming(modeOf(cfg))
		return res, work.PeakCurrent(tm), nil
	}

	baseRes, basePeak, err := evaluate(nil)
	if err != nil {
		return nil, err
	}
	best := &NonLeafResult{Leaf: baseRes, GoldenPeak: basePeak}

	candidates := t.NonLeaves()
	for len(best.Flips) < maxFlips {
		improved := false
		var bestFlip clocktree.NodeID
		var bestRes *Result
		bestPeak := best.GoldenPeak
		for _, id := range candidates {
			if id == t.Root() || contains(best.Flips, id) {
				continue
			}
			if _, err := invertingTwin(fullLib, t.Node(id).Cell); err != nil {
				continue // no equal-drive inverter available
			}
			res, peak, err := evaluate(append(append([]clocktree.NodeID(nil), best.Flips...), id))
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue // flip made the instance infeasible; skip it
			}
			if peak < bestPeak-1e-9 {
				bestFlip, bestRes, bestPeak = id, res, peak
				improved = true
			}
		}
		if !improved {
			break
		}
		best.Flips = append(best.Flips, bestFlip)
		best.Leaf = bestRes
		best.GoldenPeak = bestPeak
	}
	return best, nil
}

// ApplyNonLeaf commits the flips and the leaf assignment to the tree.
func ApplyNonLeaf(t *clocktree.Tree, fullLib *cell.Library, res *NonLeafResult) error {
	for _, id := range res.Flips {
		inv, err := invertingTwin(fullLib, t.Node(id).Cell)
		if err != nil {
			return err
		}
		t.SetCell(id, inv)
	}
	Apply(t, res.Leaf.Assignment)
	return nil
}

// invertingTwin finds the inverter of equal drive for a buffer.
func invertingTwin(lib *cell.Library, c *cell.Cell) (*cell.Cell, error) {
	if c.Inverting() {
		return c, nil
	}
	name := fmt.Sprintf("INV_X%g", c.Drive)
	twin, ok := lib.ByName(name)
	if !ok {
		return nil, fmt.Errorf("polarity: no inverter %s in library", name)
	}
	return twin, nil
}

func contains(ids []clocktree.NodeID, id clocktree.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func modeOf(cfg Config) clocktree.Mode {
	if cfg.Mode.Name == "" {
		return clocktree.NominalMode
	}
	return cfg.Mode
}
