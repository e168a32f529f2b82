package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"wavemin"
	"wavemin/internal/faultinject"
)

// smallTreeJSON synthesizes a small design and returns its serialized
// clock tree — the payload every e2e request carries.
func smallTreeJSON(t testing.TB, n int) json.RawMessage {
	t.Helper()
	sinks := make([]wavemin.Sink, 0, n)
	for i := 0; i < n; i++ {
		sinks = append(sinks, wavemin.Sink{
			X:   float64(15 + (i%4)*10),
			Y:   float64(15 + (i/4)*10),
			Cap: 8,
		})
	}
	d, err := wavemin.New(sinks)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveTree(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fastConfig keeps e2e solves in the tens of milliseconds.
func fastConfig() map[string]any {
	return map[string]any{"samples": 16, "maxIntervals": 2}
}

func marshalReq(t testing.TB, req map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

type harness struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
}

func mustNew(t *testing.T, opts Options) *Server {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	srv := mustNew(t, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &harness{t: t, srv: srv, ts: ts}
}

// post submits a body to POST /v1/optimize and returns status + decoded
// response object.
func (h *harness) post(body []byte) (int, map[string]any) {
	h.t.Helper()
	resp, err := http.Post(h.ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		h.t.Fatalf("POST /v1/optimize: status %d, non-JSON body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

func (h *harness) get(path string) (int, []byte) {
	h.t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, body
}

// waitJob polls GET /v1/jobs/{id} until the job leaves queued/running.
func (h *harness) waitJob(id string, timeout time.Duration) jobView {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := h.get("/v1/jobs/" + id)
		if code != http.StatusOK {
			h.t.Fatalf("GET /v1/jobs/%s: status %d: %s", id, code, body)
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			h.t.Fatal(err)
		}
		if v.Status != StatusQueued && v.Status != StatusRunning {
			return v
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// resultBody fetches GET /v1/jobs/{id}/result and returns the raw bytes of
// the "result" field, for bitwise comparisons.
func (h *harness) resultBody(id string) (bool, json.RawMessage) {
	h.t.Helper()
	code, body := h.get("/v1/jobs/" + id + "/result")
	if code != http.StatusOK {
		h.t.Fatalf("GET result for %s: status %d: %s", id, code, body)
	}
	var out struct {
		CacheHit bool            `json:"cacheHit"`
		Result   json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		h.t.Fatal(err)
	}
	return out.CacheHit, out.Result
}

func jobID(t *testing.T, resp map[string]any) string {
	t.Helper()
	id, _ := resp["jobId"].(string)
	if id == "" {
		t.Fatalf("response carries no jobId: %v", resp)
	}
	return id
}

// TestEndToEnd is the service's e2e suite: each scenario drives the real
// HTTP stack (httptest) end to end through submission, queueing, the
// solver, and the result/trace endpoints. Scenarios run sequentially —
// several install process-global faultinject hooks.
func TestEndToEnd(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"HappyPathWithTrace", e2eHappyPath},
		{"CacheHitIsBitwiseIdentical", e2eCacheHit},
		{"BackpressureQueueFull", e2eBackpressure},
		{"DeadlineExpiryMidSolve", e2eDeadlineMidSolve},
		{"DeadlineExpiryInQueue", e2eDeadlineInQueue},
		{"DrainFinishesAcceptedWork", e2eDrain},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			sc.run(t)
		})
	}
}

func e2eHappyPath(t *testing.T) {
	h := newHarness(t, Options{})
	body := marshalReq(t, map[string]any{
		"tree":   smallTreeJSON(t, 8),
		"config": fastConfig(),
		"trace":  true,
	})
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, resp)
	}
	if hit, _ := resp["cacheHit"].(bool); hit {
		t.Fatal("fresh submission reported a cache hit")
	}
	id := jobID(t, resp)

	v := h.waitJob(id, 30*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("job finished %s (error %q), want done", v.Status, v.Error)
	}
	if v.AlgorithmUsed != "ClkWaveMin" || v.Degraded {
		t.Fatalf("job used %q (degraded=%v), want undegraded ClkWaveMin", v.AlgorithmUsed, v.Degraded)
	}
	if !v.HasTrace {
		t.Fatal("trace requested but job reports none")
	}

	_, blob := h.resultBody(id)
	var res wavemin.Result
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	if res.Before.PeakCurrent <= 0 || res.After.PeakCurrent <= 0 {
		t.Fatalf("implausible metrics: before %+v after %+v", res.Before, res.After)
	}
	if res.Stats != nil {
		t.Fatal("cached-form result must not embed per-run Stats")
	}

	code, trace := h.get("/v1/jobs/" + id + "/trace")
	if code != http.StatusOK {
		t.Fatalf("trace endpoint: status %d: %s", code, trace)
	}
	if !bytes.Contains(trace, []byte(`"optimize`)) {
		t.Fatalf("trace carries no optimize span: %.200s", trace)
	}

	// Unknown job and unfinished-state errors are structured, not 500s.
	if code, body := h.get("/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d: %s", code, body)
	}
	if code, body := h.get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", code, body)
	}
}

func e2eCacheHit(t *testing.T) {
	h := newHarness(t, Options{})
	body := marshalReq(t, map[string]any{
		"tree":   smallTreeJSON(t, 8),
		"config": fastConfig(),
	})
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, body %v", code, resp)
	}
	id1 := jobID(t, resp)
	if v := h.waitJob(id1, 30*time.Second); v.Status != StatusDone {
		t.Fatalf("first job finished %s (error %q)", v.Status, v.Error)
	}
	_, first := h.resultBody(id1)
	runsAfterFirst := h.srv.MetricsSnapshot().SolverRuns

	// A semantically identical resubmission — different JSON key order and
	// an explicit execution-policy knob — must answer from the cache,
	// without another solver run.
	body2 := marshalReq(t, map[string]any{
		"config": map[string]any{"maxIntervals": 2, "samples": 16, "workers": 2},
		"tree":   smallTreeJSON(t, 8),
	})
	code, resp = h.post(body2)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, body %v (want immediate 200)", code, resp)
	}
	if hit, _ := resp["cacheHit"].(bool); !hit {
		t.Fatalf("resubmit not served from cache: %v", resp)
	}
	id2 := jobID(t, resp)
	hit, second := h.resultBody(id2)
	if !hit {
		t.Fatal("result endpoint lost the cacheHit marker")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit not bitwise identical:\n first %s\nsecond %s", first, second)
	}

	m := h.srv.MetricsSnapshot()
	if m.SolverRuns != runsAfterFirst {
		t.Fatalf("cache hit re-invoked the solver: runs %d -> %d", runsAfterFirst, m.SolverRuns)
	}
	if m.CacheHits != 1 {
		t.Fatalf("cacheHits = %d, want 1", m.CacheHits)
	}
	// noCache forces a fresh solve even with the result cached.
	body3 := marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 8), "config": fastConfig(), "noCache": true,
	})
	code, resp = h.post(body3)
	if code != http.StatusAccepted {
		t.Fatalf("noCache submit: status %d, body %v", code, resp)
	}
	if v := h.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone {
		t.Fatalf("noCache job finished %s", v.Status)
	}
	if m := h.srv.MetricsSnapshot(); m.SolverRuns != runsAfterFirst+1 {
		t.Fatalf("noCache run count %d, want %d", m.SolverRuns, runsAfterFirst+1)
	}
}

func e2eBackpressure(t *testing.T) {
	h := newHarness(t, Options{QueueCapacity: 1, Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	// The hook may fire from several per-zone solver goroutines at once:
	// signal arrival without blocking, then hold them all until release.
	faultinject.Set(faultinject.SitePolarityZone, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})

	body := marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 8), "config": fastConfig(),
	})
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, body %v", code, resp)
	}
	running := jobID(t, resp)
	<-started // the single worker is now blocked mid-solve

	code, resp = h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("second submit (fills backlog): status %d, body %v", code, resp)
	}
	queued := jobID(t, resp)

	// Queue at capacity: every further submission must be a 429 with a
	// usable Retry-After, never a 500 and never silently dropped.
	for i := 0; i < 3; i++ {
		req, err := http.NewRequest("POST", h.ts.URL+"/v1/optimize", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit at capacity: status %d: %s", resp.StatusCode, raw)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("Retry-After %q, want an integer >= 1", resp.Header.Get("Retry-After"))
		}
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != "queue_full" {
			t.Fatalf("429 body %s (err %v), want error.code queue_full", raw, err)
		}
	}
	if m := h.srv.MetricsSnapshot(); m.RejectedFull != 3 {
		t.Fatalf("rejectedFull = %d, want 3", m.RejectedFull)
	}

	faultinject.Reset() // let the queued job pass its own zone hooks
	close(release)      // unblock every held hook call of the running job
	for _, id := range []string{running, queued} {
		if v := h.waitJob(id, 30*time.Second); v.Status != StatusDone {
			t.Fatalf("job %s finished %s (error %q) after release", id, v.Status, v.Error)
		}
	}
}

func e2eDeadlineMidSolve(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})
	// Every per-zone polarity solve stalls longer than the whole job
	// deadline: the ladder must degrade rung by rung and bottom out at the
	// unmodified tree instead of hanging or failing.
	faultinject.Set(faultinject.SitePolarityZone, func() { time.Sleep(300 * time.Millisecond) })

	body := marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 8), "config": fastConfig(), "timeoutMs": 200,
	})
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, resp)
	}
	id := jobID(t, resp)
	v := h.waitJob(id, 30*time.Second)
	switch v.Status {
	case StatusDone:
		if !v.Degraded {
			t.Fatalf("solve beat a deadline it cannot beat: %+v", v)
		}
	case StatusExpired:
		// Also acceptable: the deadline fired before the ladder could
		// even return the unmodified tree.
	default:
		t.Fatalf("job finished %s (error %q), want done-degraded or expired", v.Status, v.Error)
	}

	// A degraded answer must never be cached: the same request with no
	// fault and a roomy deadline runs the solver for real.
	faultinject.Reset()
	body = marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 8), "config": fastConfig(),
	})
	code, resp = h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after degradation: status %d, body %v (a degraded result leaked into the cache)", code, resp)
	}
	if v := h.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone || v.Degraded {
		t.Fatalf("clean resubmit finished %s degraded=%v", v.Status, v.Degraded)
	}
}

func e2eDeadlineInQueue(t *testing.T) {
	h := newHarness(t, Options{Workers: 1, QueueCapacity: 4})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	var once sync.Once
	faultinject.Set(faultinject.SitePolarityZone, func() {
		// Once blocks every concurrent caller until the first completes,
		// so the whole blocker job holds until release closes.
		once.Do(func() { started <- struct{}{}; <-release })
	})

	body := marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 8), "config": fastConfig(),
	})
	code, resp := h.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d", code)
	}
	blocker := jobID(t, resp)
	<-started

	// This job's 50ms deadline expires while it waits behind the blocker;
	// the worker must retire it as expired without invoking the solver.
	code, resp = h.post(marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 8), "config": fastConfig(), "timeoutMs": 50, "noCache": true,
	}))
	if code != http.StatusAccepted {
		t.Fatalf("doomed submit: status %d", code)
	}
	doomed := jobID(t, resp)
	time.Sleep(100 * time.Millisecond)
	runsBefore := h.srv.MetricsSnapshot().SolverRuns
	close(release)

	if v := h.waitJob(doomed, 30*time.Second); v.Status != StatusExpired {
		t.Fatalf("doomed job finished %s, want expired", v.Status)
	}
	if v := h.waitJob(blocker, 30*time.Second); v.Status != StatusDone {
		t.Fatalf("blocker finished %s (error %q)", v.Status, v.Error)
	}
	m := h.srv.MetricsSnapshot()
	if m.SolverRuns != runsBefore {
		t.Fatalf("expired-in-queue job invoked the solver: runs %d -> %d", runsBefore, m.SolverRuns)
	}
	if m.Expired != 1 {
		t.Fatalf("expired = %d, want 1", m.Expired)
	}
	if code, body := h.get("/v1/jobs/" + doomed + "/result"); code != http.StatusConflict {
		t.Fatalf("result of expired job: status %d: %s", code, body)
	}
}

func e2eDrain(t *testing.T) {
	h := newHarness(t, Options{Workers: 2, QueueCapacity: 8})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	var once sync.Once
	faultinject.Set(faultinject.SitePolarityZone, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		once.Do(func() { <-release }) // Once blocks every concurrent caller until released
	})

	body := marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 8), "config": fastConfig(), "noCache": true,
	})
	var ids []string
	for i := 0; i < 3; i++ {
		code, resp := h.post(body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, body %v", i, code, resp)
		}
		ids = append(ids, jobID(t, resp))
	}
	<-started // at least one job is mid-solve when the drain begins

	drained := make(chan error, 1)
	go func() { drained <- h.srv.Drain(t.Context()) }()

	// Intake must close promptly: new submissions and health checks flip
	// to 503 while in-flight work keeps running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, resp := h.post(body)
		if code == http.StatusServiceUnavailable {
			if c, _ := resp["error"].(map[string]any); c["code"] != "draining" {
				t.Fatalf("503 body %v, want error.code draining", resp)
			}
			break
		}
		if code != http.StatusAccepted && code != http.StatusTooManyRequests {
			t.Fatalf("submit during drain onset: status %d, body %v", code, resp)
		}
		if time.Now().After(deadline) {
			t.Fatal("intake never closed after Drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body := h.get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d: %s", code, body)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every job accepted before the drain completed — none were dropped.
	for _, id := range ids {
		if v := h.waitJob(id, time.Second); v.Status != StatusDone {
			t.Fatalf("accepted job %s finished %s (error %q) across drain", id, v.Status, v.Error)
		}
	}
}

// TestParallelSubmitStorm race-hammers the full HTTP stack: concurrent
// submissions against a tiny queue must each resolve to 202 (accepted),
// 200 (cache hit), or 429 (backpressure) — never a 5xx, a hang, or a
// dropped job.
func TestParallelSubmitStorm(t *testing.T) {
	h := newHarness(t, Options{QueueCapacity: 2, Workers: 2})
	body := marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 8), "config": fastConfig(),
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	var accepted []string
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp, err := http.Post(h.ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out map[string]any
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if derr != nil {
					t.Errorf("status %d with non-JSON body: %v", resp.StatusCode, derr)
					return
				}
				mu.Lock()
				counts[resp.StatusCode]++
				if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
					accepted = append(accepted, out["jobId"].(string))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for code := range counts {
		switch code {
		case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected status %d under storm (counts %v)", code, counts)
		}
	}
	if len(accepted) == 0 {
		t.Fatalf("storm accepted nothing: %v", counts)
	}
	for _, id := range accepted {
		if v := h.waitJob(id, 60*time.Second); v.Status != StatusDone {
			t.Fatalf("accepted job %s finished %s (error %q)", id, v.Status, v.Error)
		}
	}
}

// TestRefusedSubmissionsReleaseRetention: a refused submission (429 or
// 503) mints a job record and removes it again, so its ID must not stay
// in the retention order — or every refusal grows s.order for good.
func TestRefusedSubmissionsReleaseRetention(t *testing.T) {
	s := mustNew(t, Options{})
	const cycles = 2*maxJobs + 1
	for i := 0; i < cycles; i++ {
		s.removeJob(s.addJob(&optimizeRequest{}, false).id)
	}
	s.mu.Lock()
	jobs, order := len(s.jobs), len(s.order)
	s.mu.Unlock()
	if jobs != 0 || order > maxJobs {
		t.Fatalf("after %d add/remove cycles: jobs=%d order=%d, want 0 and <= %d", cycles, jobs, order, maxJobs)
	}
}

// TestJobRegistryEvictionAmortized: once the registry is full of
// finished jobs, a submission must not pay for a walk over every
// record. A compaction evicts down to a low watermark, so the next
// maxJobs/8 submissions insert without scanning or copying, and a live
// job is never evicted.
func TestJobRegistryEvictionAmortized(t *testing.T) {
	s := mustNew(t, Options{})
	live := s.addJob(&optimizeRequest{}, false)
	add := func() { s.addJob(&optimizeRequest{}, true).land(StatusDone, nil, "", false, "") }
	for i := 0; i < maxJobs+maxJobs/4; i++ {
		add()
	}
	const n = 2048
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		add()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 8<<10 {
		t.Fatalf("addJob at the retention bound allocates %d bytes on average, want < 8 KiB", per)
	}
	s.mu.Lock()
	_, kept := s.jobs[live.id]
	order := len(s.order)
	s.mu.Unlock()
	if !kept || order > maxJobs {
		t.Fatalf("live job kept=%v, order=%d: want the live job kept and order <= %d", kept, order, maxJobs)
	}
}
