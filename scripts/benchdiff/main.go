// Command benchdiff compares two benchmark snapshots written by
// scripts/benchjson and reports the per-benchmark time and allocation
// deltas. It exits non-zero when any benchmark's ns/op, B/op or allocs/op
// regressed by more than -threshold percent — wire it as a non-blocking
// Makefile tier, since single-run snapshots carry real machine noise.
//
// Usage:
//
//	go run ./scripts/benchdiff [-threshold 25] BENCH_baseline.json BENCH_2026-08-06.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type benchmark struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type snapshot struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	threshold := flag.Float64("threshold", 25, "ns/op, B/op or allocs/op regression percent that fails the diff")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] old.json new.json")
		os.Exit(2)
	}
	oldSnap, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newSnap, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fmt.Printf("old: %s (%s, GOMAXPROCS=%d)\n", flag.Arg(0), oldSnap.Date, oldSnap.GOMAXPROCS)
	fmt.Printf("new: %s (%s, GOMAXPROCS=%d)\n\n", flag.Arg(1), newSnap.Date, newSnap.GOMAXPROCS)
	if regressed := report(os.Stdout, oldSnap, newSnap, *threshold); regressed > 0 {
		fmt.Printf("\n%d regression(s) beyond %.0f%%\n", regressed, *threshold)
		os.Exit(1)
	}
	fmt.Printf("\nno regressions beyond %.0f%%\n", *threshold)
}

// report writes the per-benchmark table to w and returns how many
// ns/op, B/op and allocs/op figures grew by more than threshold percent.
func report(w io.Writer, oldSnap, newSnap snapshot, threshold float64) int {
	oldBy := make(map[string]benchmark, len(oldSnap.Benchmarks))
	for _, b := range oldSnap.Benchmarks {
		oldBy[b.Name] = b
	}
	var names []string
	newBy := make(map[string]benchmark, len(newSnap.Benchmarks))
	for _, b := range newSnap.Benchmarks {
		newBy[b.Name] = b
		names = append(names, b.Name)
	}
	sort.Strings(names)

	regressed := 0
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		nb := newBy[name]
		ob, ok := oldBy[name]
		if !ok || ob.NsPerOp == 0 {
			fmt.Fprintf(w, "%-60s %14s %14.0f %8s\n", name, "-", nb.NsPerOp, "new")
			continue
		}
		delta := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		mark := ""
		if delta > threshold {
			mark = "  REGRESSED"
			regressed++
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %+7.1f%%%s\n", name, ob.NsPerOp, nb.NsPerOp, delta, mark)
		// Checked apart from allocs/op: a few large allocations (arena
		// chunks) can multiply B/op while allocs/op barely moves.
		if ob.BytesPerOp > 0 && nb.BytesPerOp > ob.BytesPerOp*(1+threshold/100) {
			fmt.Fprintf(w, "%-60s %14.0f %14.0f B/op  REGRESSED\n", "  ^ bytes", ob.BytesPerOp, nb.BytesPerOp)
			regressed++
		}
		if ob.AllocsPerOp > 0 && nb.AllocsPerOp > ob.AllocsPerOp*(1+threshold/100) {
			fmt.Fprintf(w, "%-60s %14.0f %14.0f allocs/op  REGRESSED\n", "  ^ allocations", ob.AllocsPerOp, nb.AllocsPerOp)
			regressed++
		}
	}
	for _, b := range oldSnap.Benchmarks {
		if _, ok := newBy[b.Name]; !ok {
			fmt.Fprintf(w, "%-60s %14.0f %14s %8s\n", b.Name, b.NsPerOp, "-", "gone")
		}
	}
	return regressed
}

func load(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return s, fmt.Errorf("%s: no benchmarks", path)
	}
	return s, nil
}
