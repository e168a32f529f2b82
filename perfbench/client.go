package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// opTimeout bounds one operation, poll loop included. A solve of the
// largest circuit takes under a second here; anything near this bound is
// a hang, and the operation counts as failed.
const opTimeout = 60 * time.Second

// client is one closed-loop caller: it owns a transport, so its requests
// reuse one keep-alive connection per server it talks to.
type client struct {
	id   int
	http *http.Client

	// current names the operation in flight, for the run deadline's
	// failure message.
	current atomic.Pointer[string]
}

func newClient(id int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, http: &http.Client{Transport: tr, Timeout: opTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) doing(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	c.current.Store(&s)
}

// apiStatusError is a non-2xx answer the operation did not expect.
type apiStatusError struct {
	method, path string
	status       int
	body         string
}

func (e *apiStatusError) Error() string {
	return fmt.Sprintf("%s %s: status %d: %s", e.method, e.path, e.status, e.body)
}

// refused reports whether the server turned the request away under load
// (429 queue full, 503 draining or forward backpressure).
func (e *apiStatusError) refused() bool {
	return e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable
}

func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return resp.StatusCode, out, nil
}

type submitReply struct {
	JobID    string `json:"jobId"`
	Status   string `json:"status"`
	CacheHit bool   `json:"cacheHit"`
}

// jobView is the subset of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	JobID         string `json:"jobId"`
	Status        string `json:"status"`
	CacheHit      bool   `json:"cacheHit"`
	SubmittedAt   string `json:"submittedAt"`
	StartedAt     string `json:"startedAt"`
	FinishedAt    string `json:"finishedAt"`
	AlgorithmUsed string `json:"algorithmUsed"`
	Degraded      bool   `json:"degraded"`
	Error         string `json:"error"`
	HasTrace      bool   `json:"hasTrace"`
	ZonesReused   int    `json:"zonesReused"`
	ZonesResolved int    `json:"zonesResolved"`
}

type resultEnvelope struct {
	JobID    string          `json:"jobId"`
	CacheHit bool            `json:"cacheHit"`
	Result   json.RawMessage `json:"result"`
}

// op is the record of one operation: a solve (submit, wait, fetch) or a
// cache hit (submit answered 200, fetch).
type op struct {
	client  int
	index   int // position in the workload's request stream
	hit     bool
	jobID   string
	start   time.Time // POST sent
	end     time.Time // result bytes in hand
	latency time.Duration
	// Client-side spans: the POST round trip and the result fetch.
	submitSpan, resultSpan interval
	polls                  int     // job-view polls (solves only)
	view                   jobView // final job view (solves only)
	result                 []byte  // the envelope's result bytes
	resultKB               float64 // result response size
	err                    error

	reduction float64      // peak-current reduction of the result, %
	forwarded bool         // sent to a node that does not own the key
	solveRan  bool         // a repeat that queued a solver job instead
	delta     bool         // an ECO delta (mixed workload)
	yield     *yieldReport // yield jobs only
	tr        *traceAgg    // traced runs, solver jobs only
}

func asAPIError(err error) (*apiStatusError, bool) {
	var ae *apiStatusError
	ok := errors.As(err, &ae)
	return ae, ok
}

// timeNS strips the monotonic reading so the instant compares with the
// server's wall-clock job timestamps (same process, same clock).
func timeNS(t time.Time) int64 { return t.Round(0).UnixNano() }

func parseStamp(s string) (int64, error) {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return 0, err
	}
	return t.UnixNano(), nil
}

// submit posts a body to base's optimize endpoint.
func (c *client) submit(ctx context.Context, base string, body []byte) (int, submitReply, error) {
	st, raw, err := c.do(ctx, http.MethodPost, base+"/v1/optimize", body)
	if err != nil {
		return st, submitReply{}, err
	}
	if st != http.StatusOK && st != http.StatusAccepted {
		return st, submitReply{}, &apiStatusError{"POST", "/v1/optimize", st, string(raw)}
	}
	var rep submitReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return st, rep, fmt.Errorf("POST /v1/optimize: %w", err)
	}
	return st, rep, nil
}

// fetchResult reads a finished job's result envelope.
func (c *client) fetchResult(ctx context.Context, base, id string) (resultEnvelope, int, error) {
	st, raw, err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return resultEnvelope{}, 0, err
	}
	if st != http.StatusOK {
		return resultEnvelope{}, 0, &apiStatusError{"GET", "/v1/jobs/" + id + "/result", st, string(raw)}
	}
	var env resultEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return env, 0, fmt.Errorf("GET result %s: %w", id, err)
	}
	return env, len(raw), nil
}

// waitDone polls the job view until the job is terminal. The poll period
// is a tenth of the time waited so far (1–10 ms), so the poll adds little
// load and the latency figure, which ends at the view's finishedAt, does
// not include the poll slack at all.
func (c *client) waitDone(ctx context.Context, base, id string) (jobView, int, error) {
	start := time.Now()
	polls := 0
	for {
		polls++
		st, raw, err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if err != nil {
			return jobView{}, polls, err
		}
		if st != http.StatusOK {
			return jobView{}, polls, &apiStatusError{"GET", "/v1/jobs/" + id, st, string(raw)}
		}
		var v jobView
		if err := json.Unmarshal(raw, &v); err != nil {
			return v, polls, fmt.Errorf("GET job %s: %w", id, err)
		}
		switch v.Status {
		case "done", "failed", "expired":
			return v, polls, nil
		}
		d := time.Since(start) / 10
		d = min(max(d, time.Millisecond), 10*time.Millisecond)
		select {
		case <-ctx.Done():
			return v, polls, fmt.Errorf("waiting for job %s: %w", id, ctx.Err())
		case <-time.After(d):
		}
	}
}

// solve runs one solver operation against base: the POST must queue a
// new job (202), which must finish "done". Latency runs from the POST to
// the job's finishedAt plus the result fetch.
func (c *client) solve(ctx context.Context, base string, index int, body []byte) *op {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	o := &op{client: c.id, index: index, start: time.Now()}
	st, rep, err := c.submit(ctx, base, body)
	o.submitSpan = interval{timeNS(o.start), timeNS(time.Now())}
	if err != nil {
		o.err = err
		return o
	}
	o.jobID = rep.JobID
	if st != http.StatusAccepted || rep.CacheHit {
		o.err = fmt.Errorf("solve %s: expected a queued job (202), got %d cacheHit=%v", rep.JobID, st, rep.CacheHit)
		return o
	}
	c.doing("client %d: wait for job %s (stream #%d)", c.id, rep.JobID, index)
	o.view, o.polls, err = c.waitDone(ctx, base, rep.JobID)
	if err != nil {
		o.err = err
		return o
	}
	if o.view.Status != "done" {
		o.err = fmt.Errorf("job %s ended %s: %s", rep.JobID, o.view.Status, o.view.Error)
		return o
	}
	r0 := time.Now()
	env, n, err := c.fetchResult(ctx, base, rep.JobID)
	o.end = time.Now()
	o.resultSpan = interval{timeNS(r0), timeNS(o.end)}
	if err != nil {
		o.err = err
		return o
	}
	o.result = env.Result
	o.resultKB = float64(n) / 1024
	fin, err := parseStamp(o.view.FinishedAt)
	if err != nil {
		o.err = fmt.Errorf("job %s finishedAt: %w", rep.JobID, err)
		return o
	}
	o.latency = time.Duration(fin-timeNS(o.start)) + o.end.Sub(r0)
	return o
}

// hit runs one cache-hit operation: the POST must be answered from the
// cache (200, cacheHit) and the result fetched.
func (c *client) hit(ctx context.Context, base string, index int, body []byte) *op {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	o := &op{client: c.id, index: index, hit: true, start: time.Now()}
	st, rep, err := c.submit(ctx, base, body)
	o.submitSpan = interval{timeNS(o.start), timeNS(time.Now())}
	if err != nil {
		o.err = err
		return o
	}
	o.jobID = rep.JobID
	o.solveRan = st == http.StatusAccepted
	if st != http.StatusOK || !rep.CacheHit {
		o.err = fmt.Errorf("repeat %s: expected a cache hit (200), got %d cacheHit=%v", rep.JobID, st, rep.CacheHit)
		return o
	}
	r0 := time.Now()
	env, n, err := c.fetchResult(ctx, base, rep.JobID)
	o.end = time.Now()
	o.resultSpan = interval{timeNS(r0), timeNS(o.end)}
	if err != nil {
		o.err = err
		return o
	}
	if !env.CacheHit {
		o.err = fmt.Errorf("repeat %s: result envelope says cacheHit=false", rep.JobID)
		return o
	}
	o.result = env.Result
	o.resultKB = float64(n) / 1024
	o.latency = o.end.Sub(o.start)
	return o
}
