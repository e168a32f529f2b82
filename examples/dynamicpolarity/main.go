// Dynamicpolarity: the research direction the paper cites as [30, 31] —
// instead of committing one static buffer/inverter choice per leaf, drive
// each flip-flop group through an XOR gate with a per-power-mode control
// bit (and double-edge-triggered flip-flops), so the polarity program can
// be re-optimized for every mode with zero timing impact.
package main

import (
	"context"
	"fmt"
	"log"

	"wavemin"
)

func main() {
	log.SetFlags(0)

	design, err := wavemin.Benchmark("s38584")
	if err != nil {
		log.Fatal(err)
	}
	pd, err := design.PartitionVoltageIslands(4)
	if err != nil {
		log.Fatal(err)
	}
	modes := []wavemin.Mode{
		{Name: "perf", Supplies: map[string]float64{pd[0]: 1.1, pd[1]: 1.1, pd[2]: 1.1, pd[3]: 1.1}},
		{Name: "save1", Supplies: map[string]float64{pd[0]: 0.9, pd[1]: 1.1, pd[2]: 0.9, pd[3]: 1.1}},
		{Name: "save2", Supplies: map[string]float64{pd[0]: 1.1, pd[1]: 0.9, pd[2]: 1.1, pd[3]: 0.9}},
	}
	if err := design.SetModes(modes); err != nil {
		log.Fatal(err)
	}

	res, err := design.OptimizeDynamicPolarity(context.Background(), wavemin.Config{Samples: 32})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dynamic polarity program for %d leaves, %d modes:\n",
		len(res.Positive), len(modes))
	for _, m := range modes {
		fmt.Printf("  %-6s worst-zone peak %7.2f mA, %3d of %d leaves run flipped\n",
			m.Name, res.PeakPerMode[m.Name]/1000, res.FlipsPerMode[m.Name], len(res.Positive))
	}

	// How different are the per-mode programs? Count leaves whose polarity
	// changes between any two modes — the flexibility a static assignment
	// gives up.
	dynamic := 0
	for _, byMode := range res.Positive {
		first := byMode[modes[0].Name]
		for _, m := range modes[1:] {
			if byMode[m.Name] != first {
				dynamic++
				break
			}
		}
	}
	fmt.Printf("leaves whose polarity changes across modes: %d\n", dynamic)
}
