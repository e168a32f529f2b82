package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestRead(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		procs   int
		names   []string
		wantErr string
	}{
		{
			name: "no suffix means GOMAXPROCS 1",
			in: "pkg: wavemin\n" +
				"BenchmarkMOSPSolve \t 1 \t 23024638 ns/op \t 1114928 B/op \t 65 allocs/op\n" +
				"pkg: wavemin/internal/yield\n" +
				"BenchmarkYieldChunk \t 1 \t 7326583 ns/op\n",
			procs: 1,
			names: []string{"BenchmarkMOSPSolve", "internal/yield:BenchmarkYieldChunk"},
		},
		{
			name: "suffix sets GOMAXPROCS",
			in: "BenchmarkECODelta1Leaf/cold-4 \t 1 \t 2191271126 ns/op\n" +
				"BenchmarkTable5PeakMinVsWaveMin/workers=1-4 \t 1 \t 29938363 ns/op \t 12.32 peak-improvement-%\n",
			procs: 4,
			names: []string{"BenchmarkECODelta1Leaf/cold", "BenchmarkTable5PeakMinVsWaveMin/workers=1"},
		},
		{
			name:    "mixed -cpu values are refused",
			in:      "BenchmarkMOSPSolve-2 \t 1 \t 100 ns/op\nBenchmarkMOSPSolve-4 \t 1 \t 90 ns/op\n",
			wantErr: "GOMAXPROCS 4, earlier benchmarks at 2",
		},
		{
			name:    "a suffixed line after unsuffixed ones is refused",
			in:      "BenchmarkA \t 1 \t 100 ns/op\nBenchmarkB-2 \t 1 \t 90 ns/op\n",
			wantErr: "GOMAXPROCS 2, earlier benchmarks at 1",
		},
		{
			name:    "no benchmark lines",
			in:      "goos: linux\nPASS\n",
			wantErr: "no benchmark lines",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := read(strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if snap.GOMAXPROCS != tc.procs {
				t.Errorf("GOMAXPROCS = %d, want %d", snap.GOMAXPROCS, tc.procs)
			}
			var names []string
			for _, b := range snap.Benchmarks {
				names = append(names, b.Name)
			}
			if !reflect.DeepEqual(names, tc.names) {
				t.Errorf("names = %q, want %q", names, tc.names)
			}
		})
	}
}

func TestParseLine(t *testing.T) {
	b, procs, ok := parseLine("BenchmarkECODelta1Leaf/delta-2 \t 2 \t 402773894 ns/op \t 384.0 zones-resolved \t 13440 zones-reused \t 58752572 B/op \t 847858 allocs/op")
	want := Benchmark{
		Name: "BenchmarkECODelta1Leaf/delta", Runs: 2, NsPerOp: 402773894,
		BytesPerOp: 58752572, AllocsPerOp: 847858,
		Metrics: map[string]float64{"zones-resolved": 384, "zones-reused": 13440},
	}
	if !ok || procs != 2 || !reflect.DeepEqual(b, want) {
		t.Fatalf("parseLine = %+v, %d, %v; want %+v, 2, true", b, procs, ok, want)
	}
	for _, line := range []string{
		"BenchmarkX \t 1",                     // too few fields
		"BenchmarkX \t many \t 10 ns/op",      // bad run count
		"BenchmarkX \t 1 \t ten ns/op",        // bad value
		"BenchmarkX \t 1 \t 10 B/op \t 1 x/y", // no ns/op
		"--- FAIL: BenchmarkX",                // not a result line
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", line)
		}
	}
}
