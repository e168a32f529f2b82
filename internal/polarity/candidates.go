// Package polarity implements the paper's primary contribution: the
// fine-grained clock buffer polarity assignment combined with buffer
// sizing (WaveMin), its ε-approximate solver ClkWaveMin, the fast
// heuristic ClkWaveMin-f, and the ClkPeakMin baseline driver.
//
// Pipeline (paper Fig. 8): characterize candidates → enumerate feasible
// arrival-time intervals under the skew bound κ → partition the design
// into zones → per (interval, zone) build the WaveMin→MOSP graph and
// solve → keep the interval whose worst zone peak is least.
package polarity

import (
	"fmt"
	"math"
	"sort"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/waveform"
)

// Candidate is one (leaf, cell) assignment option, fully characterized:
// the arrival time it induces and its supply current per sampling group in
// absolute time (clock source switches at t = 0).
type Candidate struct {
	Leaf  clocktree.NodeID
	Cell  *cell.Cell
	AT    float64 // leaf output arrival time under this assignment, ps
	Waves [NumGroups]waveform.Waveform
}

// Group selects one of the four (rail, source-edge) noise groups.
type Group int

// The four sampling groups of the paper's problem statement: "S may
// contain ... VDD and Gnd on the rising edge; VDD and Gnd on the falling
// edge".
const (
	VDDRise Group = iota
	GndRise
	VDDFall
	GndFall
	NumGroups
)

// CandidateSet holds, per leaf, the characterized options from B ∪ I.
type CandidateSet struct {
	Mode   clocktree.Mode
	ByLeaf map[clocktree.NodeID][]Candidate
}

// BuildCandidates characterizes every (leaf, cell) pair of the tree
// against the library in the given mode.
//
// Adjustable cells are characterized at zero bank steps; multi-mode
// optimization adjusts steps separately.
func BuildCandidates(t *clocktree.Tree, lib *cell.Library, mode clocktree.Mode) *CandidateSet {
	tm := t.ComputeTiming(mode)
	cs := &CandidateSet{Mode: mode, ByLeaf: make(map[clocktree.NodeID][]Candidate)}
	for _, leaf := range t.Leaves() {
		var cands []Candidate
		for _, c := range lib.Cells() {
			cands = append(cands, Characterize(t, tm, mode, leaf, c))
		}
		cs.ByLeaf[leaf] = cands
	}
	return cs
}

// Characterize computes one (leaf, cell) candidate in a mode, per
// Observation 4: the leaf's own load and input arrival are taken from the
// tree's timing tm in that mode (re-assigning a leaf leaves its siblings'
// delay/slew effectively unchanged), so each leaf's options are
// independent — the property that makes the layered MOSP formulation
// exact.
func Characterize(t *clocktree.Tree, tm *clocktree.Timing, mode clocktree.Mode, leaf clocktree.NodeID, c *cell.Cell) Candidate {
	vdd := mode.VDDOf(t.Node(leaf).Domain)
	load := tm.Load[leaf]
	slewIn := tm.SlewIn[leaf]
	edgeAtRise := t.EdgeAtInput(leaf, cell.Rising) // independent of the leaf's own cell
	atIn := tm.ATIn[leaf] + selfLoadShift(t, tm, mode, leaf, c)
	iddR, issR := c.Currents(edgeAtRise, load, vdd, slewIn)
	iddF, issF := c.Currents(edgeAtRise.Opposite(), load, vdd, slewIn)
	return Candidate{
		Leaf: leaf, Cell: c,
		AT: atIn + c.Delay(load, vdd),
		Waves: [NumGroups]waveform.Waveform{
			iddR.Shift(atIn), issR.Shift(atIn), iddF.Shift(atIn), issF.Shift(atIn),
		},
	}
}

// selfLoadShift returns the exact change of a leaf's *input* arrival time
// caused by swapping its own cell for c: the candidate's input cap loads
// both its incoming wire (Elmore term) and its parent's output (cell
// delay term). Sibling-induced shifts remain unmodeled, per Observation 4.
func selfLoadShift(t *clocktree.Tree, tm *clocktree.Timing, mode clocktree.Mode, leaf clocktree.NodeID, c *cell.Cell) float64 {
	nd := t.Node(leaf)
	if nd.Parent == clocktree.NoNode {
		return 0
	}
	dCin := c.InputCap() - nd.Cell.InputCap()
	if dCin == 0 {
		return 0
	}
	p := t.Node(nd.Parent)
	vddP := mode.VDDOf(p.Domain)
	loadP := tm.Load[p.ID]
	parentShift := p.Cell.Delay(loadP+dCin, vddP) - p.Cell.Delay(loadP, vddP)
	wireShift := nd.WireRes * dCin
	return parentShift + wireShift
}

// Leaves returns the candidate set's leaf IDs in ascending order.
func (cs *CandidateSet) Leaves() []clocktree.NodeID {
	out := make([]clocktree.NodeID, 0, len(cs.ByLeaf))
	for id := range cs.ByLeaf {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ArrivalTimes returns the sorted distinct arrival times achievable by any
// candidate — the interval anchors of the paper's Fig. 6, Step 1.
func (cs *CandidateSet) ArrivalTimes() []float64 {
	var ats []float64
	for _, cands := range cs.ByLeaf {
		for _, c := range cands {
			ats = append(ats, c.AT)
		}
	}
	sort.Float64s(ats)
	out := ats[:0]
	for i, t := range ats {
		if i == 0 || t-out[len(out)-1] > 1e-9 {
			out = append(out, t)
		}
	}
	return out
}

// Assignment maps each leaf to its chosen cell.
type Assignment map[clocktree.NodeID]*cell.Cell

// Apply writes the assignment into the tree.
func Apply(t *clocktree.Tree, a Assignment) {
	for leaf, c := range a {
		t.SetCell(leaf, c)
	}
}

// InitialAssignment captures the tree's current leaf cells (to restore or
// diff against).
func InitialAssignment(t *clocktree.Tree) Assignment {
	a := make(Assignment)
	for _, leaf := range t.Leaves() {
		a[leaf] = t.Node(leaf).Cell
	}
	return a
}

// CountKinds tallies an assignment by cell kind — e.g. how many leaves
// became inverters.
func CountKinds(a Assignment) map[cell.Kind]int {
	out := make(map[cell.Kind]int)
	for _, c := range a {
		out[c.Kind]++
	}
	return out
}

// Validate checks that the assignment covers exactly the tree's leaves.
func (a Assignment) Validate(t *clocktree.Tree) error {
	leaves := t.Leaves()
	if len(a) != len(leaves) {
		return fmt.Errorf("polarity: assignment covers %d leaves, tree has %d", len(a), len(leaves))
	}
	for _, leaf := range leaves {
		if a[leaf] == nil {
			return fmt.Errorf("polarity: leaf %d unassigned", leaf)
		}
	}
	return nil
}

// SkewOf computes the skew the assignment would induce according to the
// candidate model (exact max−min over chosen candidates' ATs).
func (cs *CandidateSet) SkewOf(a Assignment) (float64, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for leaf, cands := range cs.ByLeaf {
		chosen := a[leaf]
		if chosen == nil {
			return 0, fmt.Errorf("polarity: leaf %d unassigned", leaf)
		}
		found := false
		for _, c := range cands {
			if c.Cell == chosen {
				lo = math.Min(lo, c.AT)
				hi = math.Max(hi, c.AT)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("polarity: leaf %d assigned unknown cell %s", leaf, chosen.Name)
		}
	}
	return hi - lo, nil
}
