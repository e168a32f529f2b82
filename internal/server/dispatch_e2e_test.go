package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wavemin"
	"wavemin/internal/dispatch"
)

// startWorker runs one dispatch worker against the harness until the
// returned stop function is called (or the server drains).
func startWorker(t *testing.T, url, id string) (stop func()) {
	t.Helper()
	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator: url,
		ID:          id,
		PollWait:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(context.Background())
	}()
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		w.Kill()
		<-done
	}
}

// TestDispatchServerEndToEnd drives the full fleet path through the
// public API: a coordinator-mode server, two remote workers, a traced
// request — asserting completion, the stitched dispatch trace, cache
// replay, and a clean drain that releases the workers.
func TestDispatchServerEndToEnd(t *testing.T) {
	srv := mustNew(t, Options{
		Workers:        1,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
		Dispatch: &dispatch.Options{
			LeaseTTL:      2 * time.Second,
			SweepInterval: 100 * time.Millisecond,
			MaxAttempts:   3,
			LocalExec:     false, // force the remote path
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	stop1 := startWorker(t, ts.URL, "w1")
	defer stop1()
	stop2 := startWorker(t, ts.URL, "w2")
	defer stop2()
	h := &harness{t: t, srv: srv, ts: ts}

	body := marshalReq(t, map[string]any{
		"tree":   smallTreeJSON(t, 12),
		"config": fastConfig(),
		"trace":  true,
	})
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", code, resp)
	}
	id := resp["jobId"].(string)
	v := h.waitJob(id, 30*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job status = %s (error %q), want done", v.Status, v.Error)
	}
	if v.AlgorithmUsed == "" {
		t.Error("job record missing algorithmUsed")
	}

	// The result must decode as a wavemin result with zero Runtime (the
	// dispatch path's canonical-bytes rule).
	code, rb := h.get("/v1/jobs/" + id + "/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, rb)
	}
	var rres struct {
		Result map[string]any `json:"result"`
	}
	if err := json.Unmarshal(rb, &rres); err != nil {
		t.Fatal(err)
	}
	if rt, ok := rres.Result["Runtime"].(float64); !ok || rt != 0 {
		t.Errorf("dispatched result Runtime = %v, want 0 (canonical bytes)", rres.Result["Runtime"])
	}

	// The trace is the coordinator's dispatch tree with the worker's
	// solver trace stitched underneath.
	code, tb := h.get("/v1/jobs/" + id + "/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: status %d: %s", code, tb)
	}
	trace := string(tb)
	for _, want := range []string{`"path":"dispatch[0]"`, `"path":"dispatch[0]/attempt[0]"`, `dispatch[0]/attempt[0]/optimize[0]`} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %s", want)
		}
	}

	// An identical resubmission is a cache hit with byte-identical result.
	code, resp = h.post(body)
	if code != http.StatusOK || resp["cacheHit"] != true {
		t.Fatalf("resubmit: status %d, cacheHit %v; want 200 cached", code, resp["cacheHit"])
	}
	id2 := resp["jobId"].(string)
	_, rb2 := h.get("/v1/jobs/" + id2 + "/result")
	var rres2 struct {
		Result json.RawMessage `json:"result"`
	}
	var rres1 struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rb, &rres1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rb2, &rres2); err != nil {
		t.Fatal(err)
	}
	if string(rres1.Result) != string(rres2.Result) {
		t.Error("cache replay bytes differ from the dispatched result")
	}
	// One granted attempt, on a remote worker, is one solver run; the
	// cache hit adds none.
	if runs := srv.MetricsSnapshot().SolverRuns; runs != 1 {
		t.Errorf("SolverRuns = %d, want 1", runs)
	}

	// Drain: accepted work is done, so drain completes promptly and the
	// lease endpoint starts reporting draining, releasing worker loops.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestDispatchPathsMatchDirectOptimize pins the single job path against
// the solver itself: an in-process node, a LocalExec coordinator, and a
// coordinator whose job runs on a remote worker must all serve exactly
// the bytes of Design.Optimize called directly and marshaled canonically
// (Stats nil, Runtime 0).
func TestDispatchPathsMatchDirectOptimize(t *testing.T) {
	tree := smallTreeJSON(t, 12)
	d, err := wavemin.LoadTree(bytes.NewReader(tree))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Optimize(context.Background(), wavemin.Config{Samples: 16, MaxIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	res.Stats, res.Runtime = nil, 0
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	body := marshalReq(t, map[string]any{"tree": tree, "config": fastConfig()})
	base := Options{Workers: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute}
	for _, tc := range []struct {
		name     string
		dispatch *dispatch.Options
		worker   bool
	}{
		{"InProcess", nil, false},
		{"LocalExecCoordinator", &dispatch.Options{LocalExec: true}, false},
		{"RemoteWorker", &dispatch.Options{LocalExec: false}, true},
	} {
		opts := base
		opts.Dispatch = tc.dispatch
		h := newHarness(t, opts)
		if tc.worker {
			defer startWorker(t, h.ts.URL, "w-"+tc.name)()
		}
		code, resp := h.post(body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit: status %d: %v", tc.name, code, resp)
		}
		id := jobID(t, resp)
		if v := h.waitJob(id, 30*time.Second); v.Status != StatusDone {
			t.Fatalf("%s: job status = %s (error %q)", tc.name, v.Status, v.Error)
		}
		if _, got := h.resultBody(id); !bytes.Equal(got, want) {
			t.Errorf("%s: served bytes differ from a direct Optimize:\n got: %s\nwant: %s", tc.name, got, want)
		}
	}
}
