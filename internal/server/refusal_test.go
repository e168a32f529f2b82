package server

// TestStructuredRefusalsPinned drives every structured refusal of the
// service through its HTTP handlers and pins what a client sees: the
// status, Content-Type, Retry-After, the decoded error object, and the
// exact body bytes wherever the message names no address or timing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wavemin/internal/faultinject"
	"wavemin/internal/shard"
)

// refusal is the expected shape of one structured error response.
type refusal struct {
	status     int
	retryAfter string // Retry-After header; "" = absent
	code       string
	message    string // exact; with prefix set, the message's required prefix
	prefix     bool   // message names an address or timing: pin its prefix only
}

// body is the exact wire form of a refusal whose message is pinned.
func (want refusal) body() string {
	e := `{"error":{"code":"` + want.code + `","message":"` + want.message + `"`
	if want.retryAfter != "" {
		e += `,"retryAfterSeconds":` + want.retryAfter
	}
	return e + "}}\n"
}

func doRequest(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func checkRefusal(t *testing.T, what string, resp *http.Response, raw []byte, want refusal) {
	t.Helper()
	if resp.StatusCode != want.status {
		t.Fatalf("%s: status %d, want %d: %s", what, resp.StatusCode, want.status, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q, want application/json", what, ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != want.retryAfter {
		t.Fatalf("%s: Retry-After %q, want %q", what, ra, want.retryAfter)
	}
	var got struct {
		Error map[string]any `json:"error"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%s: body %s: %v", what, raw, err)
	}
	wantKeys := 2
	if want.retryAfter != "" {
		wantKeys = 3
		if ra, _ := json.Marshal(got.Error["retryAfterSeconds"]); string(ra) != want.retryAfter {
			t.Fatalf("%s: retryAfterSeconds %s, want %s", what, ra, want.retryAfter)
		}
	}
	if len(got.Error) != wantKeys || got.Error["code"] != want.code {
		t.Fatalf("%s: error object %v, want code %q with %d fields", what, got.Error, want.code, wantKeys)
	}
	msg, _ := got.Error["message"].(string)
	if want.prefix {
		if !strings.HasPrefix(msg, want.message) {
			t.Fatalf("%s: message %q, want prefix %q", what, msg, want.message)
		}
		return
	}
	if string(raw) != want.body() {
		t.Fatalf("%s: body\n%s\nwant\n%s", what, raw, want.body())
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// keyOwnedBy returns a request body whose cache key shard s owns in m.
func keyOwnedBy(t *testing.T, m *shard.Map, s int) []byte {
	t.Helper()
	for n := 4; n < 64; n++ {
		body := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, n), "config": fastConfig()})
		req, apiErr := decodeOptimizeRequest(body, Options{}.withDefaults())
		if apiErr != nil {
			t.Fatal(apiErr.Message)
		}
		if owner, err := m.ShardOf(req.key); err == nil && owner == s {
			return body
		}
	}
	t.Fatalf("no test tree hashes to shard %d", s)
	return nil
}

func TestStructuredRefusalsPinned(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	notFinished := func(status string) refusal {
		return refusal{status: http.StatusConflict, code: "not_finished",
			message: "job is " + status + "; poll GET /v1/jobs/{id}"}
	}

	t.Run("Queue", func(t *testing.T) {
		h := newHarness(t, Options{Workers: 1, QueueCapacity: 2})
		release := make(chan struct{})
		started := make(chan struct{}, 1)
		var once sync.Once
		faultinject.Set(faultinject.SitePolarityZone, func() {
			once.Do(func() { started <- struct{}{}; <-release })
		})
		post := func(req map[string]any) string {
			code, resp := h.post(marshalReq(t, req))
			if code != http.StatusAccepted {
				t.Fatalf("submit %v: status %d, body %v", req["timeoutMs"], code, resp)
			}
			return jobID(t, resp)
		}
		blocker := post(map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig(), "trace": true})
		<-started
		filler := post(map[string]any{"tree": smallTreeJSON(t, 9), "config": fastConfig(), "noCache": true})
		doomed := post(map[string]any{"tree": smallTreeJSON(t, 10), "config": fastConfig(), "noCache": true, "timeoutMs": 400})

		resp, raw := doRequest(t, "POST", h.ts.URL+"/v1/optimize",
			marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 11), "config": fastConfig()}))
		checkRefusal(t, "queue_full", resp, raw, refusal{status: http.StatusTooManyRequests, retryAfter: "1",
			code: "queue_full", message: "job queue at capacity; retry later"})

		for _, read := range []string{"/result", "/trace"} {
			resp, raw = doRequest(t, "GET", h.ts.URL+"/v1/jobs/"+blocker+read, nil)
			checkRefusal(t, "running "+read, resp, raw, notFinished(StatusRunning))
		}
		resp, raw = doRequest(t, "GET", h.ts.URL+"/v1/jobs/"+filler+"/result", nil)
		checkRefusal(t, "queued /result", resp, raw, notFinished(StatusQueued))

		time.Sleep(500 * time.Millisecond) // doomed's deadline passes in the queue
		faultinject.Reset()
		close(release)
		if v := h.waitJob(doomed, 30*time.Second); v.Status != StatusExpired {
			t.Fatalf("doomed job finished %s, want expired", v.Status)
		}
		resp, raw = doRequest(t, "GET", h.ts.URL+"/v1/jobs/"+doomed+"/result", nil)
		checkRefusal(t, "job_expired", resp, raw, refusal{status: http.StatusConflict,
			code: "job_expired", message: "context deadline exceeded"})

		for _, read := range []string{"", "/result", "/trace"} {
			resp, raw = doRequest(t, "GET", h.ts.URL+"/v1/jobs/nope"+read, nil)
			checkRefusal(t, "unknown_job "+read, resp, raw, refusal{status: http.StatusNotFound,
				code: "unknown_job", message: "no such job"})
		}

		for _, id := range []string{blocker, filler} {
			if v := h.waitJob(id, 30*time.Second); v.Status != StatusDone {
				t.Fatalf("job %s finished %s (error %q)", id, v.Status, v.Error)
			}
		}
		if err := h.srv.Drain(t.Context()); err != nil {
			t.Fatal(err)
		}
		resp, raw = doRequest(t, "POST", h.ts.URL+"/v1/optimize",
			marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()}))
		checkRefusal(t, "draining", resp, raw, refusal{status: http.StatusServiceUnavailable,
			code: "draining", message: "server is draining; not accepting new jobs"})
	})

	t.Run("JobFailed", func(t *testing.T) {
		h := newHarness(t, durableOpts(t.TempDir()))
		faultinject.SetErr(faultinject.SiteCastoreWrite, func() error { return errors.New("injected: disk full") })
		code, resp := h.post(marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()}))
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d, body %v", code, resp)
		}
		id := jobID(t, resp)
		if v := h.waitJob(id, 30*time.Second); v.Status != StatusFailed {
			t.Fatalf("job finished %s (error %q), want failed", v.Status, v.Error)
		}
		faultinject.Reset()
		r, raw := doRequest(t, "GET", h.ts.URL+"/v1/jobs/"+id+"/result", nil)
		checkRefusal(t, "job_failed", r, raw, refusal{status: http.StatusConflict,
			code: "job_failed", message: "jobq: job failed after 3 lease attempts (last: dispatch: persist result: castore: write: injected: disk full)"})
		if err := h.srv.Drain(t.Context()); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ForwardBackpressure", func(t *testing.T) {
		fl := newFleet(t, 2, Options{})
		sh := fl.nodes[0].srv.Load().sh
		for i := 0; i < cap(sh.slots); i++ {
			sh.slots <- struct{}{}
		}
		defer func() {
			for i := 0; i < cap(sh.slots); i++ {
				<-sh.slots
			}
		}()
		resp, raw := doRequest(t, "POST", fl.peers[0]+"/v1/optimize", keyOwnedBy(t, fl.m, 1))
		checkRefusal(t, "forward_backpressure", resp, raw, refusal{status: http.StatusServiceUnavailable,
			retryAfter: "1", code: "forward_backpressure",
			message: "too many forwards to peers in flight (bound 128); retry shortly"})
	})

	t.Run("TooLarge", func(t *testing.T) {
		// Every body the service reads is bounded the same way: past the
		// bound it is a 413, on the client API and between peers alike.
		srv := newFleet(t, 2, Options{}).nodes[0].srv.Load()
		for _, c := range []struct {
			method, path string
			limit        int64
		}{
			{"POST", "/v1/shard/map", maxShardMapBytes},
			{"PUT", "/v1/shard/cache/" + strings.Repeat("a", 64), maxPeerResponseBytes},
		} {
			if raceEnabled && c.limit > maxShardMapBytes {
				// The server buffers the whole bound before refusing, and
				// the race detector shadows every byte of it.
				continue
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, io.LimitReader(zeros{}, c.limit+1)))
			checkRefusal(t, c.method+" "+c.path, rec.Result(), rec.Body.Bytes(), refusal{status: http.StatusRequestEntityTooLarge,
				code: "too_large", message: fmt.Sprintf("request body exceeds %d bytes", c.limit)})
		}
	})

	t.Run("ShardUnavailable", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		closed := "http://" + ln.Addr().String()
		ln.Close()
		m, err := shard.New(1, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(mustNew(t, Options{ShardMap: m, ShardID: 0, Peers: []string{"http://127.0.0.1:1", closed}}).Handler())
		defer ts.Close()
		resp, raw := doRequest(t, "POST", ts.URL+"/v1/optimize", keyOwnedBy(t, m, 1))
		checkRefusal(t, "shard_unavailable", resp, raw, refusal{status: http.StatusServiceUnavailable,
			retryAfter: "1", code: "shard_unavailable", message: "shard 1 owner unreachable: ", prefix: true})
	})
}
