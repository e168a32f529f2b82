package cell

import (
	"fmt"
	"sort"
	"strings"

	"wavemin/internal/waveform"
)

// Profile is the result of characterizing one cell at one operating point —
// the paper's Fig. 7 lookup-table entry: propagation delay, output slew,
// and the hot-spot-sampled IDD/ISS waveforms for both clock edges, all
// relative to the input edge arriving at t = 0.
type Profile struct {
	Cell *Cell
	Load float64 // fF
	VDD  float64 // V
	Slew float64 // input slew used during profiling, ps (paper: 20 ps)

	TD      float64 // propagation delay, ps
	SlewOut float64 // output 20–80 % transition, ps

	IDDRise waveform.Waveform // IDD at a rising input edge
	ISSRise waveform.Waveform // ISS at a rising input edge
	IDDFall waveform.Waveform // IDD at a falling input edge
	ISSFall waveform.Waveform // ISS at a falling input edge
}

// ProfileSlew is the input transition time used while profiling. The paper
// uses 20 ps — "1 to 3 ps sharper than the average clock slew" — so the
// characterized peaks upper-bound the in-tree peaks.
const ProfileSlew = 20.0

// Characterize profiles one cell at one (load, VDD) point, the behavioural
// stand-in for the paper's HSPICE characterization run.
func Characterize(c *Cell, load, vdd float64) Profile {
	iddR, issR := c.Currents(Rising, load, vdd, ProfileSlew)
	iddF, issF := c.Currents(Falling, load, vdd, ProfileSlew)
	return Profile{
		Cell: c, Load: load, VDD: vdd, Slew: ProfileSlew,
		TD:      c.Delay(load, vdd),
		SlewOut: c.Slew(load, vdd),
		IDDRise: iddR, ISSRise: issR,
		IDDFall: iddF, ISSFall: issF,
	}
}

// PeakPlus returns the characterized P+ (peak IDD at rising edge).
func (p Profile) PeakPlus() float64 { pk, _ := p.IDDRise.Peak(); return pk }

// PeakMinus returns the characterized P− (peak IDD at falling edge).
func (p Profile) PeakMinus() float64 { pk, _ := p.IDDFall.Peak(); return pk }

// CharacterizationTable renders a Table II/III-style text table for the
// library at the given load and supplies.
func CharacterizationTable(lib *Library, load float64, vdds []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "Type")
	for _, v := range vdds {
		fmt.Fprintf(&b, " | %22s", fmt.Sprintf("VDD=%.1fV (TD  P+   P-)", v))
	}
	b.WriteString("\n")
	cells := lib.Cells()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Kind != cells[j].Kind {
			return cells[i].Kind < cells[j].Kind
		}
		return cells[i].Drive < cells[j].Drive
	})
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s", c.Name)
		for _, v := range vdds {
			fmt.Fprintf(&b, " | %6.1f %7.1f %7.1f", c.Delay(load, v), c.PeakPlus(load, v), c.PeakMinus(load, v))
		}
		b.WriteString("\n")
	}
	return b.String()
}
