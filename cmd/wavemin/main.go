// Command wavemin optimizes a clock tree's peak supply current with the
// WaveMin polarity assignment.
//
// Usage:
//
//	wavemin -bench s35932 [-kappa 20] [-samples 158] [-algo wavemin]
//	wavemin -bench s13207 -modes 4 -domains 6 -kappa 16 -adi
//
// Single-mode runs use ClkWaveMin (or -algo fast|peakmin); declaring
// -modes > 1 switches to the multi-mode flow with ADB insertion.
package main

import (
	"context"
	_ "expvar" // /debug/vars on -debug-addr
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on -debug-addr
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wavemin"
	"wavemin/internal/bench"
	"wavemin/internal/obs"
	"wavemin/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wavemin: ")

	var (
		benchName = flag.String("bench", "s13207", "benchmark circuit ("+strings.Join(wavemin.BenchmarkNames(), ", ")+")")
		sinksPath = flag.String("sinks", "", "synthesize over sinks from this CSV (x_um,y_um,cap_fF; \"-\" = stdin) instead of -bench")
		loadPath  = flag.String("load", "", "load a previously saved clock tree (JSON) instead of -bench")
		savePath  = flag.String("save", "", "save the optimized clock tree as JSON")
		dotPath   = flag.String("dot", "", "dump the optimized clock tree as Graphviz DOT")
		kappa     = flag.Float64("kappa", 20, "clock skew bound κ, ps")
		samples   = flag.Int("samples", 158, "number of time sampling points |S|")
		epsilon   = flag.Float64("eps", 0.01, "approximation parameter ε")
		algo      = flag.String("algo", "wavemin", "algorithm: wavemin | fast | peakmin")
		numModes  = flag.Int("modes", 1, "number of power modes (1 = single-mode flow)")
		domains   = flag.Int("domains", 4, "number of voltage domains (multi-mode only)")
		adi       = flag.Bool("adi", false, "offer adjustable delay inverters at ADB sites")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the optimization (0 = unlimited); on expiry the flow degrades to faster algorithms, down to returning the tree unmodified")
		workers   = flag.Int("workers", 0, "solver worker goroutines (0 = GOMAXPROCS, 1 = serial); results are identical for every count")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath = flag.String("trace", "", "write a JSONL telemetry trace of the run to this file")
		metrics   = flag.Bool("metrics", false, "print the per-stage telemetry summary after the run")
		snapshots = flag.Bool("snapshots", false, "record accumulated-waveform snapshots in the trace")
		debugAddr = flag.String("debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address, e.g. localhost:6060")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	var design *wavemin.Design
	var err error
	switch {
	case *sinksPath != "":
		var r io.Reader = os.Stdin
		if *sinksPath != "-" {
			f, ferr := os.Open(*sinksPath)
			if ferr != nil {
				log.Fatal(ferr)
			}
			defer f.Close()
			r = f
		}
		sinks, lerr := wavemin.LoadSinksCSV(r)
		if lerr != nil {
			log.Fatal(lerr)
		}
		design, err = wavemin.New(sinks)
	case *loadPath != "":
		f, ferr := os.Open(*loadPath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer f.Close()
		design, err = wavemin.LoadTree(f)
	default:
		design, err = wavemin.Benchmark(*benchName)
	}
	if err != nil {
		log.Fatal(err)
	}
	cfg := wavemin.Config{
		Kappa: *kappa, Samples: *samples, Epsilon: *epsilon, EnableADI: *adi,
		Budget: *timeout, Workers: *workers,
	}
	switch *algo {
	case "wavemin":
		cfg.Algorithm = wavemin.WaveMin
	case "fast":
		cfg.Algorithm = wavemin.WaveMinFast
	case "peakmin":
		cfg.Algorithm = wavemin.PeakMin
	default:
		log.Fatalf("unknown algorithm %q", *algo)
	}

	if *numModes > 1 {
		spec, ok := bench.SpecByName(*benchName)
		if !ok {
			log.Fatalf("multi-mode requires a named benchmark, got %q", *benchName)
		}
		names, err := design.PartitionVoltageIslands(*domains)
		if err != nil {
			log.Fatal(err)
		}
		if err := design.SetModes(spec.Modes(names, *numModes)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d modes over %d voltage domains\n", *benchName, *numModes, *domains)
	}

	label := *benchName
	switch {
	case *sinksPath != "":
		label = "custom(" + *sinksPath + ")"
	case *loadPath != "":
		label = "loaded(" + *loadPath + ")"
	}

	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	if *debugAddr != "" {
		obs.ExpvarCounters() // publish the "wavemin" map before serving
		go func() {
			log.Printf("debug server: %v", http.ListenAndServe(*debugAddr, nil))
		}()
		fmt.Printf("debug server listening on http://%s/debug/vars and /debug/pprof\n", *debugAddr)
	}

	// Telemetry: one trace for the whole run, flushed to every requested
	// sink after Optimize returns. With none of the flags set, no trace is
	// attached and the engine's telemetry path costs nothing.
	var tr *obs.Trace
	var traceOut *os.File
	if *tracePath != "" || *metrics || *snapshots || *debugAddr != "" {
		var sinks []obs.Sink
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				log.Fatal(err)
			}
			traceOut = f
			sinks = append(sinks, &obs.JSONL{W: f})
		}
		if *debugAddr != "" {
			sinks = append(sinks, obs.ExpvarSink{})
		}
		tr = obs.New(obs.Options{Sink: obs.Tee(sinks...), Snapshots: *snapshots})
	}

	// Ctrl-C cancels the optimization promptly and leaves the tree as
	// loaded; the -timeout budget degrades instead of aborting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx = obs.Into(ctx, tr)
	res, err := design.Optimize(ctx, cfg)
	if tr != nil {
		if ferr := tr.Flush(); ferr != nil {
			log.Printf("trace flush: %v", ferr)
		}
		if traceOut != nil {
			if cerr := traceOut.Close(); cerr != nil {
				log.Printf("trace close: %v", cerr)
			}
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	w := os.Stdout
	fmt.Fprintf(w, "circuit      %s (n=%d, |L|=%d)\n", label, design.Tree.Len(), len(design.Tree.Leaves()))
	fmt.Fprintf(w, "algorithm    %s, κ=%g ps, |S|=%d, ε=%g\n", *algo, *kappa, *samples, *epsilon)
	fmt.Fprintf(w, "peak current %.3f mA -> %.3f mA (%.1f%% reduction)\n",
		res.Before.PeakCurrent/1000, res.After.PeakCurrent/1000, res.PeakReduction())
	fmt.Fprintf(w, "VDD noise    %.2f mV -> %.2f mV\n", res.Before.VDDNoise*1000, res.After.VDDNoise*1000)
	fmt.Fprintf(w, "Gnd noise    %.2f mV -> %.2f mV\n", res.Before.GndNoise*1000, res.After.GndNoise*1000)
	fmt.Fprintf(w, "worst skew   %.2f ps -> %.2f ps (bound %g)\n",
		res.Before.WorstSkew, res.After.WorstSkew, *kappa)
	fmt.Fprintf(w, "leaf cells   %d buffers, %d inverters, %d ADBs, %d ADIs (%d ADBs inserted)\n",
		res.NumBuffers, res.NumInverters, res.NumADBs, res.NumADIs, res.ADBInserted)
	fmt.Fprintf(w, "runtime      %v\n", res.Runtime.Round(time.Millisecond))
	if res.Degraded {
		fmt.Fprintf(w, "degraded     budget %v exceeded; answered by %s\n", *timeout, res.AlgorithmUsed)
	} else if res.AlgorithmUsed != "" {
		fmt.Fprintf(w, "answered by  %s\n", res.AlgorithmUsed)
	}
	if *metrics && tr != nil {
		fmt.Fprintf(w, "\n%s", report.FormatSummary(obs.Summarize(tr.Events())))
	}
	if *tracePath != "" {
		fmt.Fprintf(w, "trace        %s\n", *tracePath)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := design.SaveTree(f); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "saved        %s\n", *savePath)
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := design.Tree.WriteDOT(f, label); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "dot          %s\n", *dotPath)
	}
}
