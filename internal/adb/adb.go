// Package adb allocates adjustable delay buffers (ADBs) on a clock tree so
// that the clock skew bound κ holds in every power mode — the substrate
// step of ClkWaveMin-M (paper Fig. 13, module Insert-ADB), in the spirit of
// the minimal-allocation algorithm of the paper's reference [17].
//
// Allocation escalates through three regimes, mirroring the paper's
// observation that "ADBs are located at both leaf and non-leaf positions":
//
//  1. Windowed leaf insertion: for every mode the target window is
//     [maxAT_m − κ, maxAT_m]; a leaf arriving before the window in some
//     mode is re-celled as an ADB whose bank is programmed per mode with
//     the smallest step count entering every window. The swap's own
//     base-delay change is accounted for exactly.
//  2. Sibling-slack hoisting: when a single bank cannot absorb a leaf's
//     need, the common part of its family's need moves into a non-leaf
//     ADB at the parent, bounded by every subtree leaf's need or window
//     slack.
//  3. Tree alignment (align.go): for deep designs whose per-mode spreads
//     exceed one bank, gaps between sibling subtrees' latest arrivals are
//     absorbed edge by edge with drive-matched ADBs, chaining banks along
//     root-to-leaf paths.
//
// Every pass re-times the tree exactly, so second-order load shifts are
// self-correcting; Retune polishes bank settings after later cell
// re-assignment.
package adb

import (
	"context"
	"fmt"
	"math"
	"sort"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/obs"
)

// Result reports an allocation.
type Result struct {
	Inserted []clocktree.NodeID // nodes (leaf and non-leaf) re-celled as ADBs, ID order
	Passes   int                // timing iterations used
}

// NumADBs returns the allocation size.
func (r *Result) NumADBs() int { return len(r.Inserted) }

// maxPasses bounds the fix-up iterations.
const maxPasses = 24

// Insert mutates the tree: leaves that violate any mode's skew window are
// replaced by adbCell with per-mode bank settings. Returns an error when
// the bank range cannot absorb the required shift (κ too tight for the
// ADB's delay range).
func Insert(ctx context.Context, t *clocktree.Tree, adbCell *cell.Cell, modes []clocktree.Mode, kappa float64) (*Result, error) {
	_, sp := obs.Start(ctx, "adb.insert")
	defer sp.End()
	if adbCell == nil || !adbCell.Adjustable() {
		return nil, fmt.Errorf("adb: cell %v is not adjustable", adbCell)
	}
	if kappa <= 0 {
		return nil, fmt.Errorf("adb: non-positive kappa %g", kappa)
	}
	if len(modes) == 0 {
		return nil, fmt.Errorf("adb: no modes")
	}
	res := &Result{}
	inserted := make(map[clocktree.NodeID]bool)
	leaves := t.Leaves()

	for pass := 1; pass <= maxPasses; pass++ {
		res.Passes = pass
		timings := make([]*clocktree.Timing, len(modes))
		allMeet := true
		for i, m := range modes {
			timings[i] = t.ComputeTiming(m)
			if timings[i].Skew(t) > kappa+1e-9 {
				allMeet = false
			}
		}
		if allMeet {
			t.Walk(func(n *clocktree.Node) {
				if inserted[n.ID] {
					res.Inserted = append(res.Inserted, n.ID)
				}
			})
			sort.Slice(res.Inserted, func(i, j int) bool { return res.Inserted[i] < res.Inserted[j] })
			if sp != nil {
				sp.Count("adb.inserted", int64(len(res.Inserted)))
				sp.Count("adb.passes", int64(res.Passes))
			}
			return res, nil
		}

		// Zero-step base arrival of a leaf in mode i if it were (or is)
		// the ADB cell.
		baseAT := func(leaf clocktree.NodeID, i int) float64 {
			nd := t.Node(leaf)
			at := timings[i].ATOut[leaf]
			if nd.Cell.Adjustable() {
				return at - nd.AdjustDelay(modes[i].Name)
			}
			vdd := modes[i].VDDOf(nd.Domain)
			load := timings[i].Load[leaf]
			return at + adbCell.Delay(load, vdd) - nd.Cell.Delay(load, vdd)
		}

		// Grow the must-swap set S to a fixpoint: a leaf must become an
		// ADB when it arrives before some mode's window, where the window
		// anchor T_m accounts for the base-delay penalty of every leaf
		// already in S (delays can only be added, so the target can only
		// move later).
		mustSwap := make(map[clocktree.NodeID]bool, len(inserted))
		for l := range inserted {
			mustSwap[l] = true
		}
		target := make([]float64, len(modes))
		for {
			for i := range modes {
				T := math.Inf(-1)
				for _, leaf := range leaves {
					at := timings[i].ATOut[leaf]
					if mustSwap[leaf] {
						at = baseAT(leaf, i)
					}
					if at > T {
						T = at
					}
				}
				target[i] = T
			}
			grew := false
			for _, leaf := range leaves {
				if mustSwap[leaf] {
					continue
				}
				for i := range modes {
					if timings[i].ATOut[leaf] < target[i]-kappa-1e-9 {
						mustSwap[leaf] = true
						grew = true
						break
					}
				}
			}
			if !grew {
				break
			}
		}
		if len(mustSwap) == 0 {
			return nil, fmt.Errorf("adb: skew violated but no leaf is early (inconsistent timing)")
		}

		// Per-leaf required bank delay per mode.
		needs := make(map[clocktree.NodeID][]float64)
		overflow := false
		for _, leaf := range leaves {
			if !mustSwap[leaf] {
				continue
			}
			ns := make([]float64, len(modes))
			for i := range modes {
				ns[i] = math.Max(0, (target[i]-kappa)-baseAT(leaf, i))
				if ns[i] > adbCell.MaxAdjust()+1e-9 {
					overflow = true
				}
			}
			needs[leaf] = ns
		}

		if overflow {
			// A leaf bank cannot absorb the whole shift: hoist the common
			// part of each sibling group's need into a *non-leaf* ADB at
			// the parent ("ADBs are located at both leaf and non-leaf
			// positions", paper §VII-E). A parent may only delay its
			// subtree by the minimum need across its leaf children —
			// anything more would push an on-time leaf past the window.
			if err := t.Validate(); err != nil {
				return nil, err
			}
			promoted := false
			byParent := make(map[clocktree.NodeID]bool)
			for leaf, ns := range needs {
				for i := range modes {
					if ns[i] > adbCell.MaxAdjust()+1e-9 {
						byParent[t.Node(leaf).Parent] = true
						break
					}
				}
			}
			for parent := range byParent {
				if parent == clocktree.NoNode {
					continue
				}
				// A parent ADB delays every leaf below it, so the hoist is
				// bounded per mode by the tightest constraint among the
				// subtree's leaves: a needy leaf can absorb up to its need,
				// an on-time leaf only up to its remaining window slack.
				pn := t.Node(parent)
				descendants := leafDescendants(t, parent)
				hoist := make(map[string]int, len(modes))
				any, safe := false, true
				for i, m := range modes {
					bound := math.Inf(1)
					for _, leaf := range descendants {
						if ns, needy := needs[leaf]; needy {
							bound = math.Min(bound, ns[i])
						} else {
							bound = math.Min(bound, math.Max(0, target[i]-timings[i].ATOut[leaf]))
						}
					}
					// The parent's own swap to the ADB cell adds base delay
					// to the whole subtree; the bank steps must leave room
					// for it, or the swap alone would overshoot.
					delta := 0.0
					if !pn.Cell.Adjustable() {
						vdd := m.VDDOf(pn.Domain)
						load := timings[i].Load[parent]
						delta = adbCell.Delay(load, vdd) - pn.Cell.Delay(load, vdd)
					}
					if delta > bound+1e-9 {
						safe = false
						break
					}
					sc := int((bound - delta) / adbCell.StepPs) // floor: never overshoot
					room := adbCell.MaxSteps - pn.AdjustSteps[m.Name]
					if sc > room {
						sc = room
					}
					hoist[m.Name] = sc
					if sc > 0 {
						any = true
					}
				}
				if !safe || !any {
					continue
				}
				if !pn.Cell.Adjustable() {
					t.SetCell(parent, adbCell)
				}
				for name, s := range hoist {
					t.SetAdjustSteps(parent, name, pn.AdjustSteps[name]+s)
				}
				inserted[parent] = true
				promoted = true
			}
			if !promoted {
				// Sibling-slack hoisting is exhausted (deep designs whose
				// per-mode spreads exceed a single bank): switch to the
				// full tree-alignment allocator, which chains banks along
				// root-to-leaf paths.
				if err := insertAligned(t, adbCell, modes, kappa, inserted); err != nil {
					return nil, fmt.Errorf("%w (κ=%g)", err, kappa)
				}
			}
			continue // re-time and retry with the hoisted delays in place
		}

		// Program every must-swap leaf into all windows.
		for leaf, ns := range needs {
			steps := make(map[string]int, len(modes))
			for i, m := range modes {
				base := baseAT(leaf, i)
				hi := target[i]
				sc := int(math.Ceil(ns[i]/adbCell.StepPs - 1e-9))
				if sc > adbCell.MaxSteps || base+float64(sc)*adbCell.StepPs > hi+1e-9 {
					return nil, fmt.Errorf("adb: leaf %d mode %s needs %g ps beyond bank range %g (κ=%g)",
						leaf, m.Name, ns[i], adbCell.MaxAdjust(), kappa)
				}
				steps[m.Name] = sc
			}
			if !t.Node(leaf).Cell.Adjustable() {
				t.SetCell(leaf, adbCell)
			}
			for name, s := range steps {
				t.SetAdjustSteps(leaf, name, s)
			}
			inserted[leaf] = true
		}
	}
	return nil, fmt.Errorf("adb: did not converge within %d passes", maxPasses)
}

// CountAdjustables tallies the tree's adjustable cells by kind, at both
// leaf and non-leaf positions — the paper's #ADBs/#ADIs accounting.
func CountAdjustables(t *clocktree.Tree) (adbs, adis int) {
	t.Walk(func(n *clocktree.Node) {
		switch n.Cell.Kind {
		case cell.ADB:
			adbs++
		case cell.ADI:
			adis++
		}
	})
	return adbs, adis
}

// Retune re-programs the capacitor banks of the tree's existing
// adjustable leaves (ADB or ADI) against *realized* timing so that every
// mode meets κ. No cells are swapped. This is the post-assignment settle
// pass: committing a polarity assignment shifts parent loads slightly
// (Observation 4's second-order effect), and the banks — being
// programmable per mode anyway — absorb that drift exactly.
// Retune is best-effort: it cannot move plain leaves, so small residual
// violations from plain-leaf drift remain (and are reported via the
// returned worst skew). It errors only on structural failures — a bank
// that cannot reach its window at all.
func Retune(ctx context.Context, t *clocktree.Tree, modes []clocktree.Mode, kappa float64) (worstSkew float64, err error) {
	_, sp := obs.Start(ctx, "adb.retune")
	defer sp.End()
	defer func() { sp.Gauge("adb.worst_skew", worstSkew) }()
	if kappa <= 0 {
		return 0, fmt.Errorf("adb: non-positive kappa %g", kappa)
	}
	sites := Sites(t)
	sp.Count("adb.retune_sites", int64(len(sites)))
	for pass := 0; pass < maxPasses; pass++ {
		worstSkew = 0
		for _, m := range modes {
			if s := t.ComputeTiming(m).Skew(t); s > worstSkew {
				worstSkew = s
			}
		}
		if worstSkew <= kappa+1e-9 || len(sites) == 0 {
			return worstSkew, nil
		}
		changed := false
		for _, m := range modes {
			tm := t.ComputeTiming(m)
			// The unavoidable latest arrival: plain leaves as they are,
			// adjustable leaves at zero bank steps.
			T := math.Inf(-1)
			for _, leaf := range t.Leaves() {
				at := tm.ATOut[leaf] - t.Node(leaf).AdjustDelay(m.Name)
				if at > T {
					T = at
				}
			}
			for _, leaf := range t.Leaves() {
				nd := t.Node(leaf)
				if !nd.Cell.Adjustable() {
					continue // plain drift is absorbed by the skew report
				}
				base := tm.ATOut[leaf] - nd.AdjustDelay(m.Name)
				need := math.Max(0, T-kappa-base)
				sc := int(math.Ceil(need/nd.Cell.StepPs - 1e-9))
				if sc > nd.Cell.MaxSteps || base+float64(sc)*nd.Cell.StepPs > T+1e-9 {
					return worstSkew, fmt.Errorf("adb: leaf %d mode %s needs %g ps beyond bank range %g",
						leaf, m.Name, need, nd.Cell.MaxAdjust())
				}
				if nd.AdjustSteps[m.Name] != sc {
					changed = true
				}
				t.SetAdjustSteps(leaf, m.Name, sc)
			}
		}
		if !changed {
			break
		}
	}
	worstSkew = 0
	for _, m := range modes {
		if s := t.ComputeTiming(m).Skew(t); s > worstSkew {
			worstSkew = s
		}
	}
	return worstSkew, nil
}

// Sites returns the leaves currently celled with adjustable cells — the
// positions ClkWaveMin-M may swap between ADB and ADI.
func Sites(t *clocktree.Tree) []clocktree.NodeID {
	var out []clocktree.NodeID
	for _, leaf := range t.Leaves() {
		if t.Node(leaf).Cell.Adjustable() {
			out = append(out, leaf)
		}
	}
	return out
}

// leafDescendants collects the leaves in a node's subtree.
func leafDescendants(t *clocktree.Tree, id clocktree.NodeID) []clocktree.NodeID {
	var out []clocktree.NodeID
	var rec func(clocktree.NodeID)
	rec = func(v clocktree.NodeID) {
		n := t.Node(v)
		if n.IsLeaf() {
			out = append(out, v)
			return
		}
		for _, ch := range n.Children {
			rec(ch)
		}
	}
	rec(id)
	return out
}
