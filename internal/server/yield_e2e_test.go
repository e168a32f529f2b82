package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"wavemin/internal/dispatch"
	"wavemin/internal/faultinject"
	"wavemin/internal/jobq"
	"wavemin/internal/yield"
)

// yieldReqBody builds the canonical yield-mode request the e2e scenarios
// share: identical bytes into every server, so responses are comparable
// byte for byte.
func yieldReqBody(t *testing.T) []byte {
	t.Helper()
	return marshalReq(t, map[string]any{
		"tree":   smallTreeJSON(t, 8),
		"config": fastConfig(),
		"yield": map[string]any{
			"sigma":      0.08,
			"kappa":      200,
			"samples":    256,
			"candidates": 3,
			"seed":       7,
		},
		"timeoutMs": 60000,
	})
}

// yieldReference computes the report bytes for body with no server in
// the loop: the decoded request runs through yield.GenerateCandidates
// and yield.Run with the in-process LocalRunner — the reference every
// served yield report must match byte for byte.
func yieldReference(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	req, apiErr := decodeOptimizeRequest(body, Options{}.withDefaults())
	if apiErr != nil {
		t.Fatalf("decode: %s", apiErr.Message)
	}
	ctx := context.Background()
	cands, rejected, err := yield.GenerateCandidates(ctx, req.tree, req.cfg, req.modes, *req.yield)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := yield.Run(ctx, cands, *req.yield, rejected, nil, &yield.LocalRunner{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// runYieldJob submits the body, waits for completion, and returns the
// finished view plus the raw result bytes.
func runYieldJob(t *testing.T, h *harness, body []byte) (jobView, json.RawMessage) {
	t.Helper()
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("POST yield: status %d: %v", code, resp)
	}
	v := h.waitJob(jobID(t, resp), 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("yield job ended %s: %s", v.Status, v.Error)
	}
	_, res := h.resultBody(v.JobID)
	return v, res
}

// TestYieldEndToEndLocal drives yield mode through the plain in-process
// server, whose chunks run on its own pool: report bytes against the
// LocalRunner reference, report shape, job decoration, early-stop
// metrics, and the cache replay contract under the extended key.
func TestYieldEndToEndLocal(t *testing.T) {
	h := newHarness(t, Options{Workers: 2, DefaultTimeout: time.Minute, MaxTimeout: time.Minute})
	body := yieldReqBody(t)
	v, res := runYieldJob(t, h, body)
	if want := yieldReference(t, body); string(res) != string(want) {
		t.Fatalf("in-process report differs from the LocalRunner reference\nwant: %s\ngot:  %s", want, res)
	}
	if v.AlgorithmUsed != yield.AlgorithmYieldMC {
		t.Fatalf("algorithmUsed = %q, want %q", v.AlgorithmUsed, yield.AlgorithmYieldMC)
	}
	var rep yield.Report
	if err := json.Unmarshal(res, &rep); err != nil {
		t.Fatalf("result is not a yield report: %v", err)
	}
	if rep.Mode != "yield" || len(rep.Candidates) == 0 {
		t.Fatalf("malformed report: %+v", rep)
	}
	if rep.Winner < 0 || rep.Winner >= len(rep.Candidates) {
		t.Fatalf("winner %d out of range", rep.Winner)
	}
	w := rep.Candidates[rep.Winner]
	if w.Yield < 0 || w.Yield > 1 || w.NominalSkew > rep.Kappa {
		t.Fatalf("winner violates invariants: %+v", w)
	}
	if len(rep.Result) == 0 {
		t.Fatal("report carries no winning result")
	}

	// The acceptance criterion, at the metrics level: early stopping
	// demonstrably spent less than the budget.
	m := h.srv.MetricsSnapshot()
	if m.YieldJobs != 1 {
		t.Fatalf("YieldJobs = %d, want 1", m.YieldJobs)
	}
	if m.YieldChunks == 0 {
		t.Fatal("no chunk went through the lease queue")
	}
	if m.YieldSamplesSaved <= 0 || m.YieldEarlyStops != 1 {
		t.Fatalf("early stop not visible in metrics: saved=%d stops=%d",
			m.YieldSamplesSaved, m.YieldEarlyStops)
	}
	if !rep.EarlyStopped || rep.SamplesSaved != int(m.YieldSamplesSaved) {
		t.Fatalf("report/metrics disagree on savings: %d vs %d", rep.SamplesSaved, m.YieldSamplesSaved)
	}

	// Same request again: a cache hit replaying identical bytes, with
	// the yield decoration intact.
	code, resp := h.post(body)
	if code != http.StatusOK || resp["cacheHit"] != true {
		t.Fatalf("second submit: status %d %v, want cache hit", code, resp)
	}
	v2 := h.waitJob(jobID(t, resp), 10*time.Second)
	if v2.AlgorithmUsed != yield.AlgorithmYieldMC {
		t.Fatalf("cache-hit decoration lost: %q", v2.AlgorithmUsed)
	}
	_, res2 := h.resultBody(v2.JobID)
	if string(res2) != string(res) {
		t.Fatal("cache replay is not byte-identical")
	}
	if got := h.srv.MetricsSnapshot().SolverRuns; got != m.SolverRuns {
		t.Fatalf("cache hit ran the solver (%d → %d runs)", m.SolverRuns, got)
	}
}

// TestYieldFleetByteIdentical is the distributed acceptance test: a
// 3-worker fleet — with a seeded worker kill mid-chunk — must produce
// exactly the bytes of the LocalRunner reference. The kill exercises the whole
// failure path: the crashed worker abandons its lease, the sweeper
// requeues the chunk, another worker re-executes it, and the retry must
// not double-count (the report would change bytes if it did).
func TestYieldFleetByteIdentical(t *testing.T) {
	body := yieldReqBody(t)
	want := yieldReference(t, body)

	// Fleet: coordinator with remote-only execution and a tight lease so
	// the injected crash requeues quickly.
	fleet := newHarness(t, Options{
		Workers:        1,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
		Dispatch: &dispatch.Options{
			LeaseTTL:      time.Second,
			SweepInterval: 100 * time.Millisecond,
			MaxAttempts:   5,
			LocalExec:     false, // every chunk must cross the wire
		},
	})

	// The seeded kill: exactly one chunk execution panics. The worker's
	// crash containment turns it into an abandoned lease — the same
	// observable as a dead process.
	var kills atomic.Int64
	t.Cleanup(faultinject.Reset)
	faultinject.Set(faultinject.SiteWorkerExecute, func() {
		if kills.Add(1) == 1 {
			panic("injected mid-chunk worker kill")
		}
	})

	for _, id := range []string{"w1", "w2", "w3"} {
		t.Cleanup(startWorker(t, fleet.ts.URL, id))
	}

	_, got := runYieldJob(t, fleet, body)
	if string(got) != string(want) {
		t.Fatalf("fleet report differs from the LocalRunner reference\nwant: %s\ngot:  %s", want, got)
	}
	if kills.Load() < 1 {
		t.Fatal("kill hook never fired: the crash path went unexercised")
	}

	m := fleet.srv.MetricsSnapshot()
	if m.YieldChunks == 0 {
		t.Fatal("no chunks crossed the dispatch protocol")
	}
	if m.YieldSamplesSaved <= 0 {
		t.Fatalf("fleet run did not early-stop: saved=%d", m.YieldSamplesSaved)
	}
}

// TestYieldRejectsIncompatibleRequests pins the structured 400s for the
// combinations the decoder must refuse.
func TestYieldRejectsIncompatibleRequests(t *testing.T) {
	h := newHarness(t, Options{})
	tree := smallTreeJSON(t, 4)
	cases := []map[string]any{
		{"tree": tree, "yield": map[string]any{}, "baseJobId": "j-000001"},
		{"tree": tree, "yield": map[string]any{}, "modes": []map[string]any{
			{"name": "a", "supplies": map[string]float64{"core": 1.0}},
			{"name": "b", "supplies": map[string]float64{"core": 0.9}},
		}},
		{"tree": tree, "yield": map[string]any{"samples": yield.MaxSamples + 1}},
		{"tree": tree, "yield": map[string]any{"candidates": 99}},
	}
	for i, c := range cases {
		code, resp := h.post(marshalReq(t, c))
		if code != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%v), want 400", i, code, resp)
		}
	}
	if got := h.srv.MetricsSnapshot().YieldJobs; got != 0 {
		t.Fatalf("rejected requests started %d yield jobs", got)
	}
}

// TestYieldServerSampleCap pins Options.YieldMaxSamples: a budget over
// the server cap is a 400 even though the protocol ceiling allows it.
func TestYieldServerSampleCap(t *testing.T) {
	h := newHarness(t, Options{YieldMaxSamples: 128})
	body := marshalReq(t, map[string]any{
		"tree":  smallTreeJSON(t, 4),
		"yield": map[string]any{"samples": 256},
	})
	code, resp := h.post(body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d (%v), want 400", code, resp)
	}
}

// TestYieldRefusedAfterDrain: a yield submission that reaches
// submitYield after Drain began must be refused as draining — its
// driver would otherwise outlive Drain and run against closed stores —
// and must leave no admission slot behind.
func TestYieldRefusedAfterDrain(t *testing.T) {
	s := mustNew(t, Options{})
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	req, apiErr := decodeOptimizeRequest(yieldReqBody(t), s.opts)
	if apiErr != nil {
		t.Fatalf("decode: %s", apiErr.Message)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := s.addJob(req, false)
	j.cancel = cancel
	if err := s.submitYield(ctx, j, req); !errors.Is(err, jobq.ErrDraining) {
		t.Fatalf("submitYield after Drain: %v, want jobq.ErrDraining", err)
	}
	if n := s.yieldPending.Load(); n != 0 {
		t.Fatalf("yieldPending = %d after a refused submission, want 0", n)
	}
}
