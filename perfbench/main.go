// Command perfbench is the wavemind service benchmark: it runs the real
// service (internal/server, in process, on loopback listeners) under one
// of four seeded closed-loop workloads and prints every metric with its
// unit. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wavemin/internal/dispatch"
	"wavemin/internal/server"
)

// runDeadline bounds a whole run. Past it the run fails, naming the
// workload and every operation in flight, instead of hanging.
const runDeadline = 150 * time.Second

// setupReps is how many times an untraced run sets its workload up; the
// reported set-up time is the median.
const setupReps = 3

// tailPercentile is the percentile each workload reports as its tail
// latency: the highest of p99.9, p99 and p90 with at least ten samples
// beyond it at the default run length (chooseTail), fixed per workload so
// that runs of different speed report the same statistic.
var tailPercentile = map[string]float64{"cold": 90, "hit": 99, "mixed": 99, "yield": 75}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold, hit, mixed or yield")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold|hit|mixed|yield --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fatal(err)
	}
	r := &run{w: w, rc: runCfg{seed: *seed, seconds: *seconds, traced: *traced == 1, tmpDir: tmp}}
	for i := 0; i < runtime.NumCPU(); i++ {
		r.rc.clients = append(r.rc.clients, newClient(i))
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		var inflight []string
		for _, c := range r.rc.clients {
			if s := c.current.Load(); s != nil {
				inflight = append(inflight, *s)
			}
		}
		fmt.Fprintf(os.Stderr, "FAIL: workload %s exceeded the %v run deadline during %s; in flight: %s\n",
			w.name, runDeadline, r.stage(), strings.Join(inflight, "; "))
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	sum, err := r.execute()
	watchdog.Stop()
	if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fatal(fmt.Errorf("workload %s: %w", w.name, err))
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !sum.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "FAIL:", err)
	os.Exit(1)
}

func info(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// run is one benchmark process: set-up, measured phase, checks, metrics.
type run struct {
	w  workload
	rc runCfg

	mu       sync.Mutex
	curStage string
}

func (r *run) setStage(s string) {
	r.mu.Lock()
	r.curStage = s
	r.mu.Unlock()
}

func (r *run) stage() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.curStage
}

// phase is the outcome of one measured phase.
type phase struct {
	ops           []*op
	start, end    time.Time // first POST, last result in hand
	before, after []server.Metrics
	allocBytes    uint64
	depthMax      int
	rss           []float64 // resident set samples, MB
	// Dispatch coordinator counters, when the first server has one.
	coordBefore, coordAfter *dispatch.Metrics
}

func (r *run) execute() (*summary, error) {
	printEnv(r.w.name, r.rc)
	defer func() {
		for _, c := range r.rc.clients {
			c.close()
		}
	}()

	reps := setupReps
	if r.rc.traced {
		reps = 1
	}
	var setups []float64
	var fx *fixture
	for rep := 0; rep < reps; rep++ {
		r.setStage(fmt.Sprintf("set-up %d of %d", rep+1, reps))
		t0 := time.Now()
		f, err := r.w.setup(r.rc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < reps-1 {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
			continue
		}
		fx = f
	}
	defer fx.close()
	info("request stream digest: %s", fx.reqDigest)

	r.setStage("measured phase")
	runtime.GC()
	ph, err := r.measure(fx)
	if err != nil {
		return nil, err
	}
	r.setStage("teardown")
	if err := fx.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}

	sum := &summary{Correct: true, Attempted: len(ph.ops), Metrics: map[string]metric{}}
	for _, o := range ph.ops {
		if o.err != nil {
			sum.Failed++
			if sum.Failed <= 5 {
				info("failed operation (client %d, stream #%d): %v", o.client, o.index, o.err)
			}
		}
	}
	lines, ierr := fx.isolation(ph.ops, ph.before, ph.after)
	for _, l := range lines {
		info("%s", l)
	}
	if ierr != nil {
		info("isolation check failed: %v", ierr)
		sum.Correct = false
	}
	quality, resDigest, qerr := qualityOf(fx, ph.ops)
	if qerr != nil {
		// A slow run may not reach the whole prefix; the quality figure
		// then covers fewer results and no longer repeats exactly.
		info("quality prefix incomplete: %v", qerr)
	}
	info("result digest: %s", resDigest)
	if sum.Failed > 0 {
		sum.Correct = false
	}
	info("attempted %d, failed %d", sum.Attempted, sum.Failed)

	if r.rc.traced {
		r.setStage("probe pass")
		layers, err := layerMetrics(r.w.name, r.rc, fx, ph)
		if err != nil {
			return nil, err
		}
		sum.Metrics = layers
		return sum, nil
	}

	ok := okOps(ph.ops)
	lat := latenciesMS(ph.ops)
	tail := tailPercentile[r.w.name]
	info("latency samples %d; tail reported at p%g (chooseTail(%d) = p%g)", len(lat), tail, len(lat), chooseTail(len(lat)))
	elapsed := ph.end.Sub(ph.start).Seconds()
	sum.Metrics["setup_s"] = metric{median(setups), "s"}
	sum.Metrics["jobs_per_s"] = metric{float64(len(ok)) / elapsed, "1/s"}
	sum.Metrics["latency_p50_ms"] = metric{median(lat), "ms"}
	sum.Metrics["latency_tail_ms"] = metric{percentile(lat, tail), "ms"}
	sum.Metrics["peak_reduction_pct"] = metric{quality, "%"}
	sum.Metrics["alloc_mb_per_job"] = metric{float64(ph.allocBytes) / 1e6 / float64(max(len(ok), 1)), "MB"}
	sum.Metrics["rss_mb"] = metric{median(ph.rss), "MB"}
	var solveLat, hitLat []float64
	for _, o := range ok {
		if o.hit {
			hitLat = append(hitLat, float64(o.latency)/1e6)
		} else {
			solveLat = append(solveLat, float64(o.latency)/1e6)
		}
	}
	info("solves %d: p50 %.2f ms, p90 %.2f ms; hits %d: p50 %.2f ms, p90 %.2f ms",
		len(solveLat), median(solveLat), percentile(solveLat, 90), len(hitLat), median(hitLat), percentile(hitLat, 90))
	info("set-up times (s): %v", setups)
	info("resident set over the measured phase (MB): median %.1f, max %.1f (%d samples); process peak %.1f",
		median(ph.rss), percentile(ph.rss, 100), len(ph.rss), statusMB("VmHWM:"))
	return sum, nil
}

// measure runs the closed loop: every client issues its next operation
// as soon as its previous one completes, until the run length passes.
func (r *run) measure(fx *fixture) (*phase, error) {
	ph := &phase{before: fx.fl.metrics()}
	coord := fx.fl.srvs[0].Coordinator()
	if coord != nil {
		m := coord.MetricsSnapshot()
		ph.coordBefore = &m
	}
	stopSamplers := make(chan struct{})
	var depthWG sync.WaitGroup
	if r.rc.traced {
		depthWG.Add(1)
		go func() {
			defer depthWG.Done()
			ph.depthMax = sampleDepth(fx.fl, stopSamplers)
		}()
	}
	rssDone := make(chan []float64, 1)
	go func() { rssDone <- sampleRSS(stopSamplers) }()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	ctx := context.Background()
	ph.start = time.Now()
	stop := ph.start.Add(time.Duration(r.rc.seconds * float64(time.Second)))
	var mu sync.Mutex
	var fatalErr error
	var wg sync.WaitGroup
	for _, c := range r.rc.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(stop) {
				o, err := fx.next(ctx, c)
				if err != nil {
					mu.Lock()
					fatalErr = errors.Join(fatalErr, err)
					mu.Unlock()
					return
				}
				if r.rc.traced && o.err == nil && !o.hit {
					o.tr, o.err = c.fetchTrace(ctx, fx.fl.urls[0], o.jobID)
				}
				mu.Lock()
				ph.ops = append(ph.ops, o)
				if o.end.After(ph.end) {
					ph.end = o.end
				}
				mu.Unlock()
			}
			c.current.Store(nil)
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms)
	ph.allocBytes = ms.TotalAlloc - alloc0
	close(stopSamplers)
	depthWG.Wait()
	ph.rss = <-rssDone
	ph.after = fx.fl.metrics()
	if coord != nil {
		m := coord.MetricsSnapshot()
		ph.coordAfter = &m
	}
	if fatalErr != nil {
		return nil, fatalErr
	}
	if ph.end.IsZero() {
		return nil, errors.New("no operation completed in the measured phase")
	}
	sort.Slice(ph.ops, func(i, j int) bool { return ph.ops[i].start.Before(ph.ops[j].start) })
	return ph, nil
}

func okOps(ops []*op) []*op {
	var out []*op
	for _, o := range ops {
		if o.err == nil {
			out = append(out, o)
		}
	}
	return out
}

// latenciesMS lists every operation's latency. A failed operation counts
// as missing every limit: it enters at the operation timeout.
func latenciesMS(ops []*op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(o.latency) / 1e6
		if o.err != nil {
			out[i] = float64(opTimeout) / 1e6
		}
	}
	return out
}

// qualityOf averages the peak reduction over the results every run of
// this seed produces (set-up solves plus the stream prefix) and digests
// those results in a fixed order.
func qualityOf(fx *fixture, ops []*op) (float64, string, error) {
	type ranked struct {
		rank int
		o    *op
	}
	var rs []ranked
	for i, o := range fx.setupOps {
		rs = append(rs, ranked{-len(fx.setupOps) + i, o})
	}
	want := 0
	for _, o := range ops {
		if k, ok := fx.prefix(o); ok {
			if o.err != nil {
				return 0, "", fmt.Errorf("prefix operation #%d failed", o.index)
			}
			rs = append(rs, ranked{k, o})
			want = max(want, k+1)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].rank < rs[j].rank })
	if len(rs) == 0 {
		return 0, "", errors.New("no results in the quality set")
	}
	d := newDigest()
	var reds []float64
	for _, x := range rs {
		d.add(canonicalResult(x.o.result))
		reds = append(reds, x.o.reduction)
	}
	var err error
	if got := len(rs) - len(fx.setupOps); got < want {
		err = fmt.Errorf("%d of %d prefix results", got, want)
	}
	return mean(reds), fmt.Sprintf("%s over %d results", d.hex(), len(rs)), err
}

func printEnv(name string, rc runCfg) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	info("workload %s, seed %d, run length %gs, traced %v", name, rc.seed, rc.seconds, rc.traced)
	info("nproc %d, GOMAXPROCS %d, %s, cpu %q, commit %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sampleRSS reads the resident set every 10 ms until stop closes.
func sampleRSS(stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			out = append(out, statusMB("VmRSS:"))
		}
	}
}

// statusMB reads one kB field of /proc/self/status in MB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
