package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"wavemin/internal/obs"
)

// traceAgg is what one solver job's server-side trace contributes to the
// per-layer numbers: self time per layer, the root spans (for coverage),
// and counter totals.
type traceAgg struct {
	self     map[string]int64 // ns, keyed by layer (see layerOf)
	roots    []interval
	counters map[string]int64
}

// layerOf maps a trace span name to the layer its self time is charged
// to, or "" for spans the per-layer table does not list.
func layerOf(name string) string {
	if strings.HasPrefix(name, "measure.") || strings.HasPrefix(name, "rung.") {
		// A rung's own time is cloning, applying the assignment and the
		// after-measurement: timing and current kernel work.
		return "measure"
	}
	switch name {
	case "polarity", "zone", "eco", "attempt", "yield.run",
		// The coordinator's own share of a dispatched job: lease wait,
		// spec shipping, persisting and landing the outcome.
		"dispatch":
		return name
	}
	return ""
}

// fetchTrace reads and digests a finished job's trace. It is not part of
// any timed operation.
func (c *client) fetchTrace(ctx context.Context, base, id string) (*traceAgg, error) {
	st, raw, err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, &apiStatusError{"GET", "/v1/jobs/" + id + "/trace", st, string(raw)}
	}
	evs, err := obs.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("trace of %s: %w", id, err)
	}
	return aggregate(evs), nil
}

func aggregate(evs []obs.Event) *traceAgg {
	a := &traceAgg{self: map[string]int64{}, counters: map[string]int64{}}
	spans := make([]span, 0, len(evs))
	names := make(map[string]string, len(evs))
	for _, ev := range evs {
		for k, v := range ev.Counters {
			a.counters[k] += v
		}
		if ev.Timing == nil {
			continue
		}
		iv := interval{ev.Timing.StartNS, ev.Timing.StartNS + ev.Timing.DurNS}
		spans = append(spans, span{path: ev.Path, iv: iv})
		names[ev.Path] = ev.Name
		if ev.Depth == 0 {
			a.roots = append(a.roots, iv)
		}
	}
	for path, self := range selfTimes(spans) {
		if l := layerOf(names[path]); l != "" {
			a.self[l] += self
		}
	}
	return a
}

// sampleDepth polls the servers' queue backlog every 2 ms until stop
// closes and returns the deepest backlog seen.
func sampleDepth(fl *fleet, stop <-chan struct{}) int {
	deepest := 0
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return deepest
		case <-tick.C:
		}
		for _, s := range fl.srvs {
			st := s.MetricsSnapshot().QueueStats
			depth := 0
			for _, q := range st.Queued {
				depth += q
			}
			deepest = max(deepest, depth)
		}
	}
}

// opCoverage is the share of an operation's latency that the recorded
// spans account for: the client's submit and result spans, the job's
// queue wait (submittedAt→startedAt) and the server trace's root spans,
// on one clock.
func opCoverage(o *op) (float64, bool) {
	if o.err != nil || o.latency <= 0 {
		return 0, false
	}
	if o.hit {
		covered := (o.submitSpan.end - o.submitSpan.start) + (o.resultSpan.end - o.resultSpan.start)
		return float64(covered) / float64(o.latency), true
	}
	sub, err1 := parseStamp(o.view.SubmittedAt)
	started, err2 := parseStamp(o.view.StartedAt)
	fin, err3 := parseStamp(o.view.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil || o.tr == nil {
		return 0, false
	}
	ivs := append([]interval{o.submitSpan, {sub, started}}, o.tr.roots...)
	covered := coverage(interval{o.submitSpan.start, fin}, ivs) + (o.resultSpan.end - o.resultSpan.start)
	return float64(covered) / float64(o.latency), true
}
