package cell

import (
	"fmt"
	"sort"
)

// Library is a named collection of cells: the union B ∪ I (∪ {ADB, ADI})
// the polarity assignment chooses from.
type Library struct {
	cells  []*Cell
	byName map[string]*Cell
}

// NewLibrary builds a library from the given cells, validating each and
// rejecting duplicate names.
func NewLibrary(cells ...*Cell) (*Library, error) {
	lib := &Library{byName: make(map[string]*Cell, len(cells))}
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := lib.byName[c.Name]; dup {
			return nil, fmt.Errorf("library: duplicate cell %s", c.Name)
		}
		lib.cells = append(lib.cells, c)
		lib.byName[c.Name] = c
	}
	sort.Slice(lib.cells, func(i, j int) bool { return lib.cells[i].Name < lib.cells[j].Name })
	return lib, nil
}

// MustNewLibrary is NewLibrary but panics on error.
func MustNewLibrary(cells ...*Cell) *Library {
	lib, err := NewLibrary(cells...)
	if err != nil {
		panic(err)
	}
	return lib
}

// Cells returns all cells in deterministic (name) order.
func (l *Library) Cells() []*Cell { return append([]*Cell(nil), l.cells...) }

// ByName looks a cell up; ok is false when absent.
func (l *Library) ByName(name string) (*Cell, bool) {
	c, ok := l.byName[name]
	return c, ok
}

// MustByName looks a cell up and panics when absent; for tests and tables.
func (l *Library) MustByName(name string) *Cell {
	c, ok := l.byName[name]
	if !ok {
		panic("library: no cell named " + name)
	}
	return c
}

// Buffers returns the non-inverting, non-adjustable cells (the paper's B).
func (l *Library) Buffers() []*Cell { return l.filter(func(c *Cell) bool { return c.Kind == Buf }) }

// Inverters returns the inverting, non-adjustable cells (the paper's I).
func (l *Library) Inverters() []*Cell { return l.filter(func(c *Cell) bool { return c.Kind == Inv }) }

// Adjustables returns ADB and ADI cells.
func (l *Library) Adjustables() []*Cell {
	return l.filter(func(c *Cell) bool { return c.Adjustable() })
}

// Len returns the number of cells.
func (l *Library) Len() int { return len(l.cells) }

func (l *Library) filter(keep func(*Cell) bool) []*Cell {
	var out []*Cell
	for _, c := range l.cells {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// WithCells returns a new library extended by the given cells.
func (l *Library) WithCells(cells ...*Cell) (*Library, error) {
	return NewLibrary(append(l.Cells(), cells...)...)
}

// Restrict returns a sub-library containing only the named cells, in the
// order given. Unknown names are an error.
func (l *Library) Restrict(names ...string) (*Library, error) {
	cells := make([]*Cell, 0, len(names))
	for _, n := range names {
		c, ok := l.byName[n]
		if !ok {
			return nil, fmt.Errorf("library: restrict: no cell named %s", n)
		}
		cells = append(cells, c)
	}
	return NewLibrary(cells...)
}

// analytic model parameters shared by the default library. Calibrated so
// that characterization at typical leaf loads lands in the range of the
// paper's Tables I/II (tens-to-hundreds of µA peaks, 15–40 ps delays).
const (
	bufCinPerX  = 0.25 // fF per X (Table I: BUF_X4 Cin = 1 fF)
	invCinPerX  = 0.28 // fF per X (Table I: INV_X8 Cin = 2.2 fF)
	routUnit    = 6.36 // kΩ (Table I: BUF_X16 Rout = 397.6 Ω)
	cparPerX    = 0.5  // fF per X
	bufIntrins  = 5.0  // ps
	invIntrins  = 6.0  // ps
	crowbarFrac = 0.11
)

func makeBuf(x float64) *Cell {
	return &Cell{
		Name: fmt.Sprintf("BUF_X%g", x), Kind: Buf, Drive: x,
		CinPerX: bufCinPerX, RoutUnit: routUnit, CparPerX: cparPerX,
		Intrinsic: bufIntrins, CrowbarFr: crowbarFrac,
	}
}

func makeInv(x float64) *Cell {
	return &Cell{
		Name: fmt.Sprintf("INV_X%g", x), Kind: Inv, Drive: x,
		CinPerX: invCinPerX, RoutUnit: routUnit, CparPerX: cparPerX,
		Intrinsic: invIntrins, CrowbarFr: crowbarFrac,
	}
}

// MakeADB returns an adjustable delay buffer of the given drive with the
// given capacitor-bank geometry (steps × stepPs).
func MakeADB(x float64, steps int, stepPs float64) *Cell {
	return &Cell{
		Name: fmt.Sprintf("ADB_X%g", x), Kind: ADB, Drive: x,
		CinPerX: bufCinPerX, RoutUnit: routUnit, CparPerX: cparPerX * 1.4,
		Intrinsic: bufIntrins + 2, CrowbarFr: crowbarFrac,
		StepPs: stepPs, MaxSteps: steps,
	}
}

// MakeADI returns the paper's adjustable delay inverter (Fig. 4): an
// inverting delay-adjustable cell with a longer base delay than the ADB of
// equal drive because of its extra inverter stages.
func MakeADI(x float64, steps int, stepPs float64) *Cell {
	return &Cell{
		Name: fmt.Sprintf("ADI_X%g", x), Kind: ADI, Drive: x,
		CinPerX: invCinPerX, RoutUnit: routUnit, CparPerX: cparPerX * 1.4,
		Intrinsic: invIntrins + 2, CrowbarFr: crowbarFrac,
		StepPs: stepPs, MaxSteps: steps,
	}
}

// DefaultLibrary returns the full analytic cell family: buffers and
// inverters X1..X32 plus one ADB and one ADI (X8, 32 steps × 3 ps: a 96 ps
// bank, enough to absorb multi-mode island shifts at tight κ).
func DefaultLibrary() *Library {
	var cells []*Cell
	for _, x := range []float64{1, 2, 4, 8, 16, 32} {
		cells = append(cells, makeBuf(x), makeInv(x))
	}
	cells = append(cells, MakeADB(8, 32, 3), MakeADI(8, 32, 3))
	return MustNewLibrary(cells...)
}

// sharedDefault is the library SharedDefaultLibrary returns.
var sharedDefault = DefaultLibrary()

// SharedDefaultLibrary returns one DefaultLibrary, built once and shared
// by every caller: the library the tree loaders resolve cell names
// against, so a request decode does not rebuild it. Its cells must not be
// edited; a caller that edits cells takes its own from DefaultLibrary.
func SharedDefaultLibrary() *Library { return sharedDefault }

// SizingLibrary returns the four leaf types the paper's experiments assign
// (§VII-A): BUF_X8, BUF_X16, INV_X8, INV_X16.
func SizingLibrary() *Library {
	return MustNewLibrary(makeBuf(8), makeBuf(16), makeInv(8), makeInv(16))
}

// SizingLibraryWithAdjustables is SizingLibrary plus ADB_X8 and ADI_X8,
// the multi-mode experiment library (§VI: B ∪ I ∪ ADB ∪ ADI).
func SizingLibraryWithAdjustables() *Library {
	return MustNewLibrary(makeBuf(8), makeBuf(16), makeInv(8), makeInv(16),
		MakeADB(8, 32, 3), MakeADI(8, 32, 3))
}
