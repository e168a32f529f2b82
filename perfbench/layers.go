package main

import (
	"fmt"
	"runtime"
)

// layerUnits lists every per-layer metric with its unit, in the order of
// the layer table in README.md. A traced run prints all of them; a layer
// the workload does not exercise reads 0.
var layerUnits = []struct{ name, unit string }{
	{"server.submit_ms", "ms"}, {"server.result_ms", "ms"}, {"server.result_kb", "KB"},
	{"server.polls_per_job", "count"}, {"server.refused", "count"},
	{"client.solve_p50_ms", "ms"}, {"client.hit_p50_ms", "ms"},
	{"wavemin.load_tree_ms", "ms"}, {"wavemin.load_tree_allocs", "count"}, {"wavemin.save_tree_ms", "ms"},
	{"wavemin.cache_key_ms", "ms"}, {"wavemin.cache_key_allocs", "count"},
	{"wavemin.optimize_ms", "ms"}, {"wavemin.optimize_mb", "MB"},
	{"polarity.self_ms", "ms"}, {"mosp.zone_ms", "ms"}, {"polarity.zones", "count"},
	{"polarity.intervals_tried", "count"}, {"mosp.labels_expanded", "count"}, {"mosp.pruned", "count"},
	{"mosp.dedup_hits", "count"}, {"mosp.capped_layers", "count"},
	{"measure.self_ms", "ms"}, {"clocktree.compute_timing_us", "us"}, {"clocktree.compute_timing_allocs", "count"},
	{"clocktree.peak_current_us", "us"}, {"clocktree.peak_current_allocs", "count"}, {"clocktree.clone_us", "us"},
	{"variation.perturb_us", "us"}, {"variation.perturb_allocs", "count"},
	{"yield.chunk_ms", "ms"}, {"yield.chunk_allocs", "count"}, {"yield.parse_tree_ms", "ms"},
	{"yield.candidates_ms", "ms"}, {"yield.chunks_per_job", "count"}, {"yield.rounds", "count"},
	{"yield.samples_saved_frac", "fraction"}, {"yield.mc_samples_per_s", "1/s"}, {"yield.run_self_ms", "ms"},
	{"eco.self_ms", "ms"},
	{"jobq.wait_p50_ms", "ms"}, {"jobq.wait_p90_ms", "ms"}, {"jobq.depth_max", "count"}, {"jobq.lease_cycle_us", "us"},
	{"dispatch.spec_kb", "KB"}, {"dispatch.spec_encode_us", "us"}, {"dispatch.spec_decode_us", "us"},
	{"dispatch.leases", "count"}, {"dispatch.requeues", "count"}, {"dispatch.remote_frac", "fraction"},
	{"dispatch.attempt_self_ms", "ms"}, {"dispatch.self_ms", "ms"},
	{"wal.append_us", "us"}, {"wal.journal_errs", "count"},
	{"castore.put_us", "us"}, {"castore.get_us", "us"}, {"castore.quarantined", "count"},
	{"rescache.hit_frac", "fraction"}, {"rescache.mem_hit_frac", "fraction"}, {"rescache.disk_hit_frac", "fraction"},
	{"rescache.get_us", "us"},
	{"zonecache.reuse_frac", "fraction"}, {"zonecache.get_us", "us"},
	{"shard.forward_frac", "fraction"}, {"shard.forward_extra_ms", "ms"}, {"shard.shard_of_ns", "ns"},
	{"trace.coverage_frac", "fraction"}, {"trace.overhead_frac", "fraction"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a traced run into the per-layer table: client spans
// and job views from the measured phase, server counters over it, the
// server traces of its solver jobs, and a probe pass over its inputs.
func layerMetrics(name string, rc runCfg, fx *fixture, ph *phase) (map[string]metric, error) {
	v := map[string]float64{}
	ok := okOps(ph.ops)
	var submit, result, kb, solveLat, hitLat, fwdLat, localLat, waits, cover []float64
	var polls, solves, fwd float64
	var rounds, samplesUsed, samplesSaved, samplesBudget float64
	self := map[string]float64{}
	for _, o := range ph.ops {
		if ae, isAPI := asAPIError(o.err); isAPI && ae.refused() {
			v["server.refused"]++
		}
	}
	for _, o := range ok {
		lat := float64(o.latency) / 1e6
		submit = append(submit, float64(o.submitSpan.end-o.submitSpan.start)/1e6)
		result = append(result, float64(o.resultSpan.end-o.resultSpan.start)/1e6)
		kb = append(kb, o.resultKB)
		if c, ok := opCoverage(o); ok {
			cover = append(cover, c)
		}
		if o.hit {
			hitLat = append(hitLat, lat)
			if o.forwarded {
				fwd++
				fwdLat = append(fwdLat, lat)
			} else {
				localLat = append(localLat, lat)
			}
			continue
		}
		solves++
		solveLat = append(solveLat, lat)
		polls += float64(o.polls)
		sub, e1 := parseStamp(o.view.SubmittedAt)
		st, e2 := parseStamp(o.view.StartedAt)
		if e1 == nil && e2 == nil {
			waits = append(waits, float64(st-sub)/1e6)
		}
		if o.tr != nil {
			for l, ns := range o.tr.self {
				self[l] += float64(ns) / 1e6
			}
		}
		if o.yield != nil {
			rounds += float64(o.yield.Rounds)
			samplesUsed += float64(o.yield.SamplesUsed)
			samplesSaved += float64(o.yield.SamplesSaved)
			samplesBudget += float64(o.yield.SamplesBudget)
		}
	}
	v["server.submit_ms"] = median(submit)
	v["server.result_ms"] = median(result)
	v["server.result_kb"] = mean(kb)
	v["server.polls_per_job"] = ratio(polls, solves)
	v["client.solve_p50_ms"] = median(solveLat)
	v["client.hit_p50_ms"] = median(hitLat)
	v["polarity.self_ms"] = ratio(self["polarity"], solves)
	v["mosp.zone_ms"] = ratio(self["zone"], solves)
	v["measure.self_ms"] = ratio(self["measure"], solves)
	v["eco.self_ms"] = ratio(self["eco"], solves)
	v["dispatch.attempt_self_ms"] = ratio(self["attempt"], solves)
	v["dispatch.self_ms"] = ratio(self["dispatch"], solves)
	v["yield.run_self_ms"] = ratio(self["yield.run"], solves)
	v["yield.rounds"] = ratio(rounds, solves)
	v["yield.samples_saved_frac"] = ratio(samplesSaved, samplesBudget)
	v["yield.mc_samples_per_s"] = samplesUsed / ph.end.Sub(ph.start).Seconds()
	v["jobq.wait_p50_ms"] = percentile(waits, 50)
	v["jobq.wait_p90_ms"] = percentile(waits, 90)
	v["jobq.depth_max"] = float64(ph.depthMax)
	v["trace.coverage_frac"] = median(cover)
	v["shard.forward_frac"] = ratio(fwd, float64(len(ok)))
	if len(fwdLat) > 0 && len(localLat) > 0 {
		v["shard.forward_extra_ms"] = median(fwdLat) - median(localLat)
	}

	// Server counters over the measured phase, summed over the fleet.
	var lookups, hits, memHits, diskHits, reused, resolved, chunks, yieldJobs, executed float64
	for i := range ph.after {
		a, b := ph.after[i], ph.before[i]
		hits += float64(a.CacheHits - b.CacheHits)
		lookups += float64(a.CacheHits - b.CacheHits + a.CacheMisses - b.CacheMisses)
		memHits += float64(a.TieredCache.Mem.Hits - b.TieredCache.Mem.Hits)
		diskHits += float64(a.TieredCache.DiskHits - b.TieredCache.DiskHits)
		reused += float64(a.EcoZonesReused - b.EcoZonesReused)
		resolved += float64(a.EcoZonesResolved - b.EcoZonesResolved)
		chunks += float64(a.YieldChunks - b.YieldChunks + a.YieldChunksInline - b.YieldChunksInline)
		yieldJobs += float64(a.YieldJobs - b.YieldJobs)
		executed += float64(a.QueueStats.Executed - b.QueueStats.Executed)
		v["wal.journal_errs"] += float64(a.JournalErrs - b.JournalErrs)
		v["castore.quarantined"] += float64(a.StoreStats.Quarantined - b.StoreStats.Quarantined)
	}
	v["rescache.hit_frac"] = ratio(hits, lookups)
	v["rescache.mem_hit_frac"] = ratio(memHits, lookups)
	v["rescache.disk_hit_frac"] = ratio(diskHits, lookups)
	v["zonecache.reuse_frac"] = ratio(reused, reused+resolved)
	v["yield.chunks_per_job"] = ratio(chunks, yieldJobs)
	if ph.coordBefore != nil {
		a, b := ph.coordAfter, ph.coordBefore
		v["dispatch.leases"] = float64(a.Leases - b.Leases)
		v["dispatch.requeues"] = float64(a.Requeues - b.Requeues)
		v["dispatch.remote_frac"] = ratio(float64(a.Completions-b.Completions), executed)
	}

	for _, c := range rc.clients {
		c.close()
	}
	runtime.GC()
	probed, err := probePass(fx.probeTrees, rc.tmpDir)
	if err != nil {
		return nil, fmt.Errorf("probe pass: %w", err)
	}
	for k, x := range probed {
		v[k] = x
	}

	out := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		out[lu.name] = metric{v[lu.name], lu.unit}
	}
	if len(v) > len(layerUnits) {
		for k := range v {
			if _, listed := out[k]; !listed {
				return nil, fmt.Errorf("per-layer metric %q is not in the table", k)
			}
		}
	}
	if name == "cold" {
		info("trace coverage on cold: %.3f (want >= 0.90)", v["trace.coverage_frac"])
	}
	return out, nil
}
