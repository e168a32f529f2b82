// Characterize: print the sizing library's Table II/III-style
// characterization (delay and the P+/P− peak currents per supply) and
// cross-check one cell against the transistor-level (switched-conductance)
// simulation — the characterization flow behind the paper's Fig. 7.
package main

import (
	"fmt"
	"log"
	"os"

	"wavemin/internal/cell"
)

func main() {
	log.SetFlags(0)

	lib := cell.SizingLibrary()
	fmt.Print(cell.CharacterizationTable(lib, 8, []float64{0.9, 1.1}))

	// Cross-validate the analytic model against the transistor-level
	// testbench for one operating point.
	c := lib.MustByName("INV_X8")
	p, err := cell.SpiceCharacterize(c, cell.Rising, 8, 1.1, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "\ncross-check INV_X8 @ 8 fF, 1.1 V, rising edge:\n")
	fmt.Fprintf(os.Stderr, "  delay:    analytic %.2f ps, switched-conductance sim %.2f ps\n",
		c.Delay(8, 1.1), p.TD)
	fmt.Fprintf(os.Stderr, "  ISS peak: analytic %.1f µA, switched-conductance sim %.1f µA\n",
		c.PeakMinus(8, 1.1), p.PeakISS())
}
