package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestReport(t *testing.T) {
	snap := func(bs ...benchmark) snapshot { return snapshot{Benchmarks: bs} }
	for _, tc := range []struct {
		name      string
		old, new  snapshot
		regressed int
		flagged   []string // substrings each REGRESSED or status line must include
	}{
		{
			name:      "within threshold",
			old:       snap(benchmark{Name: "A", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10}),
			new:       snap(benchmark{Name: "A", NsPerOp: 120, BytesPerOp: 1200, AllocsPerOp: 12}),
			regressed: 0,
		},
		{
			name:      "time",
			old:       snap(benchmark{Name: "A", NsPerOp: 100}),
			new:       snap(benchmark{Name: "A", NsPerOp: 130}),
			regressed: 1,
			flagged:   []string{"+30.0%  REGRESSED"},
		},
		{
			// Per-solve arenas back: few large allocations, so B/op
			// multiplies while allocs/op stays under the threshold.
			name:      "bytes alone",
			old:       snap(benchmark{Name: "BenchmarkECODelta1Leaf/cold", NsPerOp: 1.4e9, BytesPerOp: 4.0e8, AllocsPerOp: 2731899}),
			new:       snap(benchmark{Name: "BenchmarkECODelta1Leaf/cold", NsPerOp: 1.4e9, BytesPerOp: 5.27e9, AllocsPerOp: 2.93e6}),
			regressed: 1,
			flagged:   []string{"B/op  REGRESSED"},
		},
		{
			name:      "allocations",
			old:       snap(benchmark{Name: "A", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10}),
			new:       snap(benchmark{Name: "A", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 20}),
			regressed: 1,
			flagged:   []string{"allocs/op  REGRESSED"},
		},
		{
			name:      "all three",
			old:       snap(benchmark{Name: "A", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10}),
			new:       snap(benchmark{Name: "A", NsPerOp: 200, BytesPerOp: 2000, AllocsPerOp: 20}),
			regressed: 3,
			flagged:   []string{"+100.0%  REGRESSED", "B/op  REGRESSED", "allocs/op  REGRESSED"},
		},
		{
			name:      "no old figure, nothing to regress from",
			old:       snap(benchmark{Name: "A", NsPerOp: 100}),
			new:       snap(benchmark{Name: "A", NsPerOp: 100, BytesPerOp: 1e9, AllocsPerOp: 1e6}),
			regressed: 0,
		},
		{
			name:      "new and gone benchmarks",
			old:       snap(benchmark{Name: "Old", NsPerOp: 100}),
			new:       snap(benchmark{Name: "New", NsPerOp: 100}),
			regressed: 0,
			flagged:   []string{"new", "gone"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := report(&out, tc.old, tc.new, 25); got != tc.regressed {
				t.Errorf("report = %d regressions, want %d\n%s", got, tc.regressed, out.String())
			}
			for _, s := range tc.flagged {
				if !strings.Contains(out.String(), s) {
					t.Errorf("output lacks %q:\n%s", s, out.String())
				}
			}
		})
	}
}
