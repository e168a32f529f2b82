package wavemin

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/powergrid"
)

// LoadSinksCSV reads sink placements from CSV with the header
// "x_um,y_um,cap_fF" — the format cmd/benchgen emits, so generated
// benchmarks can be piped into external flows and back.
func LoadSinksCSV(r io.Reader) ([]Sink, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("wavemin: sinks csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("wavemin: sinks csv: empty input")
	}
	start := 0
	if rows[0][0] == "x_um" {
		start = 1
	}
	var sinks []Sink
	for i, row := range rows[start:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("wavemin: sinks csv row %d: want 3 columns, got %d", i+start+1, len(row))
		}
		var vals [3]float64
		for j, f := range row {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("wavemin: sinks csv row %d col %d: %w", i+start+1, j+1, err)
			}
			vals[j] = v
		}
		if vals[2] <= 0 {
			return nil, fmt.Errorf("wavemin: sinks csv row %d: non-positive cap %g", i+start+1, vals[2])
		}
		sinks = append(sinks, Sink{X: vals[0], Y: vals[1], Cap: vals[2]})
	}
	return sinks, nil
}

// SaveTree serializes the design's clock tree (topology, placement,
// parasitics, cell assignment, ADB settings) as JSON. Safe to call
// concurrently with Optimize: the tree is serialized under the same lock
// Optimize commits under.
func (d *Design) SaveTree(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Tree.WriteJSON(w)
}

// LoadTree reconstructs a Design from a serialized clock tree: the power
// grid is rebuilt over the tree's bounding box and the modes reset to
// nominal (re-declare with SetModes).
func LoadTree(r io.Reader) (*Design, error) {
	lib := cell.SharedDefaultLibrary()
	tree, err := clocktree.ReadJSON(r, lib)
	if err != nil {
		return nil, err
	}
	var w, h float64
	tree.Walk(func(n *clocktree.Node) { w, h = max(w, n.X), max(h, n.Y) })
	dieW, dieH := dieExtent(w, h)
	grid, err := powergrid.New(dieW, dieH, powergrid.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &Design{Tree: tree, Grid: grid, Modes: []Mode{NominalMode}, lib: lib,
		dieW: dieW, dieH: dieH}, nil
}

// dieExtent is the die a loaded tree gets when its nodes reach at most
// (maxX, maxY): the box from the origin that holds them, plus a 10 µm
// margin.
func dieExtent(maxX, maxY float64) (w, h float64) {
	return max(maxX, 0) + 10, max(maxY, 0) + 10
}
