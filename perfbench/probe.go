package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"wavemin"
	"wavemin/internal/castore"
	"wavemin/internal/clocktree"
	"wavemin/internal/dispatch"
	"wavemin/internal/jobq"
	"wavemin/internal/obs"
	"wavemin/internal/rescache"
	"wavemin/internal/shard"
	"wavemin/internal/variation"
	"wavemin/internal/wal"
	"wavemin/internal/yield"
	"wavemin/internal/zonecache"
)

// probeStat is one public call measured on a single goroutine: median
// wall time over the repetitions, and the fewest allocations of three
// more calls made with the collector paused. A collection can empty a
// sync.Pool mid-call, and another goroutine can allocate during one; with
// the collector paused and the minimum taken, the count is the steady
// state and repeats exactly.
type probeStat struct {
	ns     float64
	allocs float64
}

func probe(reps int, fn func()) probeStat {
	fn() // warm caches and pools
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		times = append(times, float64(time.Since(t0)))
	}
	var a, b runtime.MemStats
	allocs := uint64(math.MaxUint64)
	prev := debug.SetGCPercent(-1)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		allocs = min(allocs, b.Mallocs-a.Mallocs)
	}
	debug.SetGCPercent(prev)
	return probeStat{ns: median(times), allocs: float64(allocs)}
}

// batchNS times a call too short for one clock reading: the median over
// seven batches of n calls, per call.
func batchNS(n int, fn func()) float64 {
	var per []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// probeCounters are the solver counters the per-layer table reports.
var probeCounters = []string{
	"polarity.zones", "polarity.intervals_tried", "mosp.labels_expanded",
	"mosp.pruned", "mosp.dedup_hits", "mosp.capped_layers",
}

// probePass times each layer's public calls over a sample of the run's
// trees, one goroutine, nothing else running. Results are averaged over
// the sample.
func probePass(trees [][]byte, tmpDir string) (map[string]float64, error) {
	out := map[string]float64{}
	add := func(name string, v float64) { out[name] += v / float64(len(trees)) }
	ctx := context.Background()
	var optUntraced, optTraced float64
	var sampleResult []byte
	var sampleKey string
	smallest := trees[0]
	for _, t := range trees {
		if len(t) < len(smallest) {
			smallest = t
		}
		var d *wavemin.Design
		var err error
		st := probe(5, func() { d, err = wavemin.LoadTree(bytes.NewReader(t)) })
		if err != nil {
			return nil, err
		}
		add("wavemin.load_tree_ms", st.ns/1e6)
		add("wavemin.load_tree_allocs", st.allocs)
		var buf bytes.Buffer
		st = probe(5, func() { buf.Reset(); err = d.SaveTree(&buf) })
		if err != nil {
			return nil, err
		}
		add("wavemin.save_tree_ms", st.ns/1e6)
		var key string
		st = probe(5, func() { key, err = d.CacheKey(reqConfig) })
		if err != nil {
			return nil, err
		}
		sampleKey = key
		add("wavemin.cache_key_ms", st.ns/1e6)
		add("wavemin.cache_key_allocs", st.allocs)

		tree := d.Tree
		var tm *clocktree.Timing
		st = probe(20, func() { tm = tree.ComputeTiming(clocktree.NominalMode) })
		add("clocktree.compute_timing_us", st.ns/1e3)
		add("clocktree.compute_timing_allocs", st.allocs)
		st = probe(20, func() { tree.PeakCurrent(tm) })
		add("clocktree.peak_current_us", st.ns/1e3)
		add("clocktree.peak_current_allocs", st.allocs)
		st = probe(20, func() { tree.Clone() })
		add("clocktree.clone_us", st.ns/1e3)
		sc := variation.NewScratch(tree)
		rng := rand.New(rand.NewSource(1))
		st = probe(50, func() { sc.Perturb(yield.DefaultSigma, 0, rng) })
		add("variation.perturb_us", st.ns/1e3)
		add("variation.perturb_allocs", st.allocs)

		st = probe(5, func() { _, err = yield.ParseTree(t) })
		if err != nil {
			return nil, err
		}
		add("yield.parse_tree_ms", st.ns/1e6)
		chunk := &yield.ChunkSpec{Tree: t, N: yield.ChunkSize, Sigma: yield.DefaultSigma, Kappa: kappa, Seed: 1}
		st = probe(3, func() { _, err = yield.ExecuteChunk(ctx, chunk) })
		if err != nil {
			return nil, err
		}
		add("yield.chunk_ms", st.ns/1e6)
		add("yield.chunk_allocs", st.allocs)

		spec := &dispatch.JobSpec{Tree: t, Config: reqConfig, Key: key, JobID: "j-000001",
			Deadline: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
		var wire []byte
		st = probe(10, func() { wire, err = json.Marshal(spec) })
		if err != nil {
			return nil, err
		}
		add("dispatch.spec_kb", float64(len(wire))/1024)
		add("dispatch.spec_encode_us", st.ns/1e3)
		st = probe(10, func() { var back dispatch.JobSpec; err = json.Unmarshal(wire, &back) })
		if err != nil {
			return nil, err
		}
		add("dispatch.spec_decode_us", st.ns/1e3)

		// Optimize commits into its design, so every call gets a fresh
		// one; each runs once untraced and once traced.
		fresh, err := wavemin.LoadTree(bytes.NewReader(t))
		if err != nil {
			return nil, err
		}
		var res *wavemin.Result
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res, err = fresh.Optimize(ctx, reqConfig)
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		optUntraced += float64(el)
		add("wavemin.optimize_ms", float64(el)/1e6)
		add("wavemin.optimize_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		res.Stats = nil
		if sampleResult, err = json.Marshal(res); err != nil {
			return nil, err
		}

		if fresh, err = wavemin.LoadTree(bytes.NewReader(t)); err != nil {
			return nil, err
		}
		tr := obs.New(obs.Options{})
		mem := &obs.Memory{}
		tr.AttachSink(mem)
		t0 = time.Now()
		_, err = fresh.Optimize(obs.Into(ctx, tr), reqConfig)
		optTraced += float64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		if err := tr.Flush(); err != nil {
			return nil, err
		}
		agg := aggregate(mem.Events())
		for _, c := range probeCounters {
			add(c, float64(agg.counters[c]))
		}
	}
	out["trace.overhead_frac"] = optTraced/optUntraced - 1

	// Candidate generation solves the whole ladder: once, on the
	// smallest sample tree.
	yp := yield.Params{Samples: yieldBudget, Kappa: kappa}.WithDefaults()
	t0 := time.Now()
	if _, _, err := yield.GenerateCandidates(ctx, smallest, reqConfig, nil, yp); err != nil {
		return nil, err
	}
	out["yield.candidates_ms"] = float64(time.Since(t0)) / 1e6

	leaseUS, err := probeLeaseCycle()
	if err != nil {
		return nil, err
	}
	out["jobq.lease_cycle_us"] = leaseUS

	walUS, err := probeWAL(tmpDir, sampleResult)
	if err != nil {
		return nil, err
	}
	out["wal.append_us"] = walUS

	putUS, getUS, err := probeStore(tmpDir, sampleResult)
	if err != nil {
		return nil, err
	}
	out["castore.put_us"], out["castore.get_us"] = putUS, getUS

	tiered := rescache.NewTiered(rescache.New(64<<20, 4096), nil)
	tiered.Put(sampleKey, sampleResult)
	out["rescache.get_us"] = batchNS(2000, func() { tiered.Get(sampleKey) }) / 1e3

	zoneUS, err := probeZoneCache(smallest)
	if err != nil {
		return nil, err
	}
	out["zonecache.get_us"] = zoneUS

	m, err := shard.New(1, 8, 3)
	if err != nil {
		return nil, err
	}
	out["shard.shard_of_ns"] = batchNS(20000, func() { m.ShardOf(sampleKey) })
	return out, nil
}

// probeLeaseCycle times one leasable job through the queue: submit,
// lease, complete, ticket resolved.
func probeLeaseCycle() (float64, error) {
	q := jobq.New(8, 1)
	defer q.Drain(context.Background())
	var ferr error
	cycle := func() {
		tk, err := q.SubmitLeasable(context.Background(), jobq.Normal, "payload", nil)
		if err != nil {
			ferr = err
			return
		}
		l, ok := q.Lease()
		if !ok {
			ferr = fmt.Errorf("jobq: nothing to lease")
			return
		}
		if err := q.Complete(l.ID, "done"); err != nil {
			ferr = err
			return
		}
		<-tk.Done()
	}
	st := probe(200, cycle)
	return st.ns / 1e3, ferr
}

// probeWAL times a journal Append plus its commit Wait under the
// service's default group-commit fsync policy.
func probeWAL(tmpDir string, payload []byte) (float64, error) {
	dir, err := os.MkdirTemp(tmpDir, "wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	w, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncBatch}, func(wal.RecordKind, []byte) error { return nil })
	if err != nil {
		return 0, err
	}
	var ferr error
	st := probe(30, func() {
		c, err := w.Append(payload)
		if err == nil {
			err = c.Wait()
		}
		if err != nil {
			ferr = err
		}
	})
	if err := w.Close(); err != nil && ferr == nil {
		ferr = err
	}
	return st.ns / 1e3, ferr
}

// probeStore times a synced content-store Put of a fresh key and a Get.
func probeStore(tmpDir string, val []byte) (float64, float64, error) {
	dir, err := os.MkdirTemp(tmpDir, "castore-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	s, err := castore.Open(dir, castore.Options{Sync: true})
	if err != nil {
		return 0, 0, err
	}
	n := 0
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	var ferr error
	put := probe(30, func() {
		n++
		if err := s.Put(key(n), val); err != nil {
			ferr = err
		}
	})
	get := probe(30, func() {
		if _, ok := s.Get(key(1)); !ok {
			ferr = fmt.Errorf("castore: stored key missing")
		}
	})
	if err := s.Close(); err != nil && ferr == nil {
		ferr = err
	}
	return put.ns / 1e3, get.ns / 1e3, ferr
}

// probeZoneCache times a memory-tier zone-solution lookup, with a real
// solution recorded by an ECO-enabled solve of the tree.
func probeZoneCache(tree []byte) (float64, error) {
	d, err := wavemin.LoadTree(bytes.NewReader(tree))
	if err != nil {
		return 0, err
	}
	cfg := reqConfig
	cfg.ECO = &wavemin.ECOConfig{}
	res, err := d.Optimize(context.Background(), cfg)
	if err != nil {
		return 0, err
	}
	zc := zonecache.New(32<<20, 0)
	var key string
	for k, v := range res.Zones {
		zc.Put(k, v)
		if key == "" || k < key {
			key = k
		}
	}
	if key == "" {
		return 0, fmt.Errorf("zonecache: solve recorded no zones")
	}
	return batchNS(2000, func() { zc.Get(key) }) / 1e3, nil
}
