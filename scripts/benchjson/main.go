// Command benchjson converts `go test -bench` output on stdin into the
// repository's benchmark-snapshot JSON (the format of BENCH_baseline.json),
// for regression tracking with scripts/benchdiff.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./scripts/benchjson > BENCH_$(date +%F).json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark line: the standard ns/op, B/op and allocs/op
// columns plus any custom b.ReportMetric units.
type Benchmark struct {
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is a dated benchmark run on one machine configuration.
// GOMAXPROCS is the value the benchmarks ran at, read from their lines.
type Snapshot struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	snap, err := read(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	snap.Date = time.Now().UTC().Format("2006-01-02")
	snap.GoVersion = runtime.Version()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// read collects the benchmark lines of `go test -bench` output. Every
// line must carry the same GOMAXPROCS suffix, or none (which means 1):
// a snapshot mixing -cpu values would compare unlike runs.
func read(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = pkgPrefix(p)
			continue
		}
		b, procs, ok := parseLine(line)
		if !ok {
			continue
		}
		b.Name = pkg + b.Name
		if snap.GOMAXPROCS != 0 && procs != snap.GOMAXPROCS {
			return Snapshot{}, fmt.Errorf("%s ran at GOMAXPROCS %d, earlier benchmarks at %d", b.Name, procs, snap.GOMAXPROCS)
		}
		snap.GOMAXPROCS = procs
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return Snapshot{}, err
	}
	if len(snap.Benchmarks) == 0 {
		return Snapshot{}, fmt.Errorf("no benchmark lines on stdin")
	}
	return snap, nil
}

// parseLine handles one `go test -bench` result line, e.g.
//
//	BenchmarkMOSPSolve-8   42   23633690 ns/op   1128505 B/op   66 allocs/op
//
// including custom metric columns like "12.3 peak-improvement-%", and
// returns the GOMAXPROCS the name's suffix records.
func parseLine(line string) (Benchmark, int, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, 0, false
	}
	name, procs := trimProcs(fields[0])
	b := Benchmark{Name: name}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, 0, false
	}
	b.Runs = runs
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, 0, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, procs, b.NsPerOp > 0
}

// pkgPrefix turns a `pkg:` header into a name prefix so benchmarks from
// different packages cannot collide in one snapshot. The module root
// package keeps bare names (the historical format of
// BENCH_baseline.json); subpackages get their module-relative path,
// e.g. "internal/yield:BenchmarkYieldChunk".
func pkgPrefix(pkg string) string {
	if i := strings.Index(pkg, "/"); i >= 0 {
		return pkg[i+1:] + ":"
	}
	return ""
}

// trimProcs splits off the trailing "-<gomaxprocs>" the bench runner
// appends when GOMAXPROCS is not 1, so names compare across machines.
func trimProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs < 1 {
		return name, 1
	}
	return name[:i], procs
}
