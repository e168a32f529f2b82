// Multimode: a low-power design with voltage islands and dynamically
// switched power modes. The skew bound must hold in *every* mode; where
// buffer sizing cannot manage that, adjustable delay buffers are inserted
// and — with EnableADI — some become the paper's adjustable delay
// inverters, recovering polarity freedom on those sites.
package main

import (
	"context"
	"fmt"
	"log"

	"wavemin"
)

func main() {
	log.SetFlags(0)

	design, err := wavemin.Benchmark("s13207")
	if err != nil {
		log.Fatal(err)
	}

	// Partition the die into four voltage islands and define three power
	// modes: everything nominal, and two low-power modes that drop
	// different island pairs to 0.9 V.
	pd, err := design.PartitionVoltageIslands(4)
	if err != nil {
		log.Fatal(err)
	}
	modes := []wavemin.Mode{
		{Name: "perf", Supplies: map[string]float64{pd[0]: 1.1, pd[1]: 1.1, pd[2]: 1.1, pd[3]: 1.1}},
		{Name: "save1", Supplies: map[string]float64{pd[0]: 0.9, pd[1]: 0.9, pd[2]: 1.1, pd[3]: 1.1}},
		{Name: "save2", Supplies: map[string]float64{pd[0]: 1.1, pd[1]: 0.9, pd[2]: 0.9, pd[3]: 0.9}},
	}
	if err := design.SetModes(modes); err != nil {
		log.Fatal(err)
	}

	before, err := design.Measure(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worst-mode skew before optimization: %.2f ps\n", before.WorstSkew)

	res, err := design.Optimize(context.Background(), wavemin.Config{
		Kappa:     14,
		Samples:   32,
		EnableADI: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("peak current: %.2f mA -> %.2f mA (%.1f%% lower)\n",
		res.Before.PeakCurrent/1000, res.After.PeakCurrent/1000, res.PeakReduction())
	fmt.Printf("worst skew:   %.2f ps -> %.2f ps (bound 14 ps, all %d modes)\n",
		res.Before.WorstSkew, res.After.WorstSkew, len(modes))
	fmt.Printf("leaf cells:   %d buffers, %d inverters, %d ADBs, %d ADIs\n",
		res.NumBuffers, res.NumInverters, res.NumADBs, res.NumADIs)
	if res.ADBInserted > 0 {
		fmt.Printf("(%d ADBs were inserted to make κ feasible across modes)\n", res.ADBInserted)
	}
}
