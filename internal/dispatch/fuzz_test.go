package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wavemin/internal/jobq"
)

// postRaw fires a raw body at a dispatch endpoint and returns the
// response.
func postRaw(t testing.TB, base, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		t.Fatalf("POST %s: read: %v", path, err)
	}
	return resp.StatusCode, rb
}

// assertStructured4xx checks that an error response carries the
// {"error":{"code","message"}} shape.
func assertStructured4xx(t testing.TB, path string, status int, body []byte) {
	t.Helper()
	if status < 400 || status >= 500 {
		t.Fatalf("%s: status %d, want structured 4xx: %s", path, status, body)
	}
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
		t.Fatalf("%s: status %d with unstructured error body: %s", path, status, body)
	}
}

// dispatchPaths are the protocol endpoints, indexed by the fuzzer's
// endpoint selector.
var dispatchPaths = []string{
	"/v1/dispatch/lease",
	"/v1/dispatch/heartbeat",
	"/v1/dispatch/complete",
	"/v1/dispatch/fail",
}

// TestLeaseProtocolAbuse is the deterministic twin of FuzzLeaseProtocol:
// every named abuse — stale lease IDs, double completion, completion
// after lease expiry, replayed heartbeats, malformed bodies — gets a
// structured 4xx, and none of them can double-apply a result.
func TestLeaseProtocolAbuse(t *testing.T) {
	spec := testSpec(t, 8, 0, false)
	tc := newTestCoord(t, 1, Options{
		LeaseTTL:      100 * time.Millisecond,
		SweepInterval: time.Hour, // expiry is driven manually below
		MaxAttempts:   5,
	})
	base := tc.ts.URL

	t.Run("malformed bodies", func(t *testing.T) {
		bodies := []string{"", "{", "null", "[]", `"string"`, `{"leaseId":42}`, strings.Repeat("[", 1000)}
		for _, path := range dispatchPaths {
			for _, body := range bodies {
				status, rb := postRaw(t, base, path, []byte(body))
				assertStructured4xx(t, path, status, rb)
			}
		}
	})

	t.Run("stale and fabricated lease IDs", func(t *testing.T) {
		for _, path := range dispatchPaths[1:] {
			msg := map[string]any{"workerId": "abuser", "leaseId": "L-99999999"}
			if path == "/v1/dispatch/complete" {
				msg["outcome"] = map[string]any{"resultJson": json.RawMessage(`{"fake":true}`)}
			}
			b, _ := json.Marshal(msg)
			status, rb := postRaw(t, base, path, b)
			if status != http.StatusConflict {
				t.Fatalf("%s with fabricated lease: status %d (%s), want 409", path, status, rb)
			}
			assertStructured4xx(t, path, status, rb)
		}
	})

	t.Run("double complete", func(t *testing.T) {
		tk := tc.submit(spec, time.Minute)
		lease := leaseViaHTTP(t, base)
		out, err := ExecuteSpec(context.Background(), spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := json.Marshal(completeRequest{WorkerID: "w", LeaseID: lease.LeaseID, Outcome: out})
		if status, rb := postRaw(t, base, "/v1/dispatch/complete", first); status != http.StatusOK {
			t.Fatalf("first complete: status %d: %s", status, rb)
		}
		// Replay: same lease, different payload. Must be rejected and must
		// not overwrite the applied result.
		forged := *out
		forged.ResultJSON = json.RawMessage(`{"forged":true}`)
		second, _ := json.Marshal(completeRequest{WorkerID: "w", LeaseID: lease.LeaseID, Outcome: &forged})
		status, rb := postRaw(t, base, "/v1/dispatch/complete", second)
		if status != http.StatusConflict {
			t.Fatalf("double complete: status %d (%s), want 409", status, rb)
		}
		res, err := awaitTicket(t, tk, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.(*Outcome).ResultJSON, out.ResultJSON) {
			t.Fatal("replayed completion overwrote the applied result")
		}
	})

	t.Run("complete after lease expiry", func(t *testing.T) {
		tk := tc.submit(spec, time.Minute)
		lease := leaseViaHTTP(t, base)
		time.Sleep(150 * time.Millisecond) // past the 100ms TTL
		if n := tc.q.ExpireLeases(); n != 1 {
			t.Fatalf("ExpireLeases = %d, want 1", n)
		}
		out, err := ExecuteSpec(context.Background(), spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		late, _ := json.Marshal(completeRequest{WorkerID: "w", LeaseID: lease.LeaseID, Outcome: out})
		status, rb := postRaw(t, base, "/v1/dispatch/complete", late)
		if status != http.StatusConflict {
			t.Fatalf("post-expiry complete: status %d (%s), want 409", status, rb)
		}
		// The requeued job is still pending — resolve it cleanly so the
		// queue drains.
		release := leaseViaHTTP(t, base)
		ok, _ := json.Marshal(completeRequest{WorkerID: "w", LeaseID: release.LeaseID, Outcome: out})
		if status, rb := postRaw(t, base, "/v1/dispatch/complete", ok); status != http.StatusOK {
			t.Fatalf("re-complete: status %d: %s", status, rb)
		}
		if _, err := awaitTicket(t, tk, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if got := tk.Attempts(); got != 2 {
			t.Errorf("attempts = %d, want 2", got)
		}
	})

	t.Run("replayed heartbeat after resolve", func(t *testing.T) {
		tk := tc.submit(spec, time.Minute)
		lease := leaseViaHTTP(t, base)
		out, err := ExecuteSpec(context.Background(), spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		done, _ := json.Marshal(completeRequest{WorkerID: "w", LeaseID: lease.LeaseID, Outcome: out})
		if status, _ := postRaw(t, base, "/v1/dispatch/complete", done); status != http.StatusOK {
			t.Fatal("complete failed")
		}
		hb, _ := json.Marshal(heartbeatRequest{WorkerID: "w", LeaseID: lease.LeaseID})
		status, rb := postRaw(t, base, "/v1/dispatch/heartbeat", hb)
		if status != http.StatusConflict {
			t.Fatalf("heartbeat after resolve: status %d (%s), want 409", status, rb)
		}
		if _, err := awaitTicket(t, tk, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

// leaseViaHTTP performs one real lease through the HTTP protocol.
func leaseViaHTTP(t testing.TB, base string) *leaseResponse {
	t.Helper()
	b, _ := json.Marshal(leaseRequest{WorkerID: "w", WaitMs: 2000})
	status, rb := postRaw(t, base, "/v1/dispatch/lease", b)
	if status != http.StatusOK {
		t.Fatalf("lease: status %d: %s", status, rb)
	}
	var lr leaseResponse
	if err := json.Unmarshal(rb, &lr); err != nil {
		t.Fatalf("lease response: %v", err)
	}
	return &lr
}

// fuzzEnv is the long-lived target FuzzLeaseProtocol hammers: one
// coordinator with a few real leases taken out, so fuzzed inputs can hit
// live, stale, and fabricated lease state alike.
type fuzzEnv struct {
	ts       *httptest.Server
	leaseIDs []string
}

var (
	fuzzOnce sync.Once
	fuzzE    *fuzzEnv
)

func getFuzzEnv(t testing.TB) *fuzzEnv {
	fuzzOnce.Do(func() {
		q := jobq.New(64, 1)
		c := NewCoordinator(q, Options{
			LeaseTTL:      time.Hour, // leases stay live for the whole fuzz run
			SweepInterval: time.Hour,
			MaxAttempts:   3,
		})
		mux := http.NewServeMux()
		c.Register(mux)
		ts := httptest.NewServer(mux)

		// A few real jobs: one lease left live, one completed (stale ID),
		// plus jobs left queued for fuzzed lease calls to grab. The specs
		// are never executed — the fuzzer only drives the protocol.
		env := &fuzzEnv{ts: ts}
		for i := 0; i < 4; i++ {
			payload := &JobSpec{Tree: json.RawMessage(`{}`), Key: fmt.Sprintf("k%d", i)}
			if _, err := q.SubmitLeasable(context.Background(), jobq.Normal, payload, nil); err != nil {
				panic(err)
			}
		}
		live := leaseViaHTTP(t, ts.URL)
		env.leaseIDs = append(env.leaseIDs, live.LeaseID)
		done := leaseViaHTTP(t, ts.URL)
		body, _ := json.Marshal(completeRequest{WorkerID: "w", LeaseID: done.LeaseID,
			Outcome: &Outcome{ResultJSON: json.RawMessage(`{"ok":true}`)}})
		if status, rb := postRaw(t, ts.URL, "/v1/dispatch/complete", body); status != http.StatusOK {
			panic(fmt.Sprintf("fuzz env complete: %d %s", status, rb))
		}
		env.leaseIDs = append(env.leaseIDs, done.LeaseID, "L-00000000", "L-99999999", "")
		fuzzE = env
	})
	return fuzzE
}

// FuzzLeaseProtocol throws malformed and replayed protocol messages at
// the coordinator's handlers: arbitrary bodies, bodies with valid shape
// but stale/live/fabricated lease IDs, double completions. Invariants:
// no panic (a crash fails the fuzz), never a 5xx, and every error is the
// structured {"error":{code,message}} shape.
func FuzzLeaseProtocol(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte(`{"workerId":"w","waitMs":0}`))
	f.Add(uint8(1), uint8(0), []byte(`{"workerId":"w","leaseId":"L-00000001"}`))
	f.Add(uint8(2), uint8(1), []byte(`{"workerId":"w","leaseId":"L-00000001","outcome":{"resultJson":{"x":1}}}`))
	f.Add(uint8(3), uint8(2), []byte(`{"workerId":"w","leaseId":"L-00000002","retryable":true}`))
	f.Add(uint8(2), uint8(3), []byte(`{`))
	f.Add(uint8(1), uint8(4), []byte(`null`))
	f.Add(uint8(0), uint8(0), []byte(`{"workerId":"w","waitMs":-5}`))
	f.Add(uint8(3), uint8(1), []byte(`[[[[`))

	f.Fuzz(func(t *testing.T, endpoint, idSel uint8, body []byte) {
		env := getFuzzEnv(t)
		path := dispatchPaths[int(endpoint)%len(dispatchPaths)]

		// Half the runs: fire the raw bytes as-is. Other half: graft a
		// known lease ID (live, resolved, fabricated — idSel picks) into
		// an otherwise well-formed message, so replay/stale handling gets
		// exercised with realistic shapes too.
		payload := body
		if idSel%2 == 1 {
			id := env.leaseIDs[int(idSel)%len(env.leaseIDs)]
			msg := map[string]any{"workerId": "fuzz", "leaseId": id}
			if path == dispatchPaths[2] {
				msg["outcome"] = map[string]any{"resultJson": json.RawMessage(`{"fuzz":true}`)}
			}
			payload, _ = json.Marshal(msg)
		}
		if path == dispatchPaths[0] {
			// Never long-poll in a fuzz iteration: force waitMs 0 by using
			// the raw body only when it cannot wait (malformed bodies 400
			// out before waiting; valid ones may name a wait, so rewrite).
			var lr leaseRequest
			if err := json.Unmarshal(payload, &lr); err == nil && lr.WaitMs != 0 {
				lr.WaitMs = 0
				payload, _ = json.Marshal(lr)
			}
		}

		resp, err := http.Post(env.ts.URL+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()

		if resp.StatusCode >= 500 {
			t.Fatalf("%s: 5xx (%d) on fuzzed input %q: %s", path, resp.StatusCode, payload, rb)
		}
		if resp.StatusCode >= 400 {
			assertStructured4xx(t, path, resp.StatusCode, rb)
		}
	})
}

// TestWireBodyBoundConfigurable pins Options.MaxWireBytes: every
// protocol endpoint rejects bodies past the configured bound with a
// structured 413 before decoding, while messages inside the bound keep
// flowing on the same coordinator.
func TestWireBodyBoundConfigurable(t *testing.T) {
	spec := testSpec(t, 8, 0, false)
	tc := newTestCoord(t, 1, Options{
		LeaseTTL:      time.Minute,
		SweepInterval: time.Hour,
		MaxAttempts:   3,
		MaxWireBytes:  32 << 10,
	})
	base := tc.ts.URL

	oversized, _ := json.Marshal(map[string]any{
		"workerId": "w",
		"leaseId":  "L-00000001",
		"padding":  strings.Repeat("x", 64<<10),
	})
	for _, path := range dispatchPaths {
		status, rb := postRaw(t, base, path, oversized)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d (%s), want 413", path, status, rb)
		}
		assertStructured4xx(t, path, status, rb)
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(rb, &e); e.Error.Code != "too_large" {
			t.Fatalf("%s oversized body: code %q, want too_large", path, e.Error.Code)
		}
	}

	// The bound rejects, it does not wedge: a normal-sized exchange on the
	// same coordinator still completes end to end.
	tk := tc.submit(spec, time.Minute)
	lease := leaseViaHTTP(t, base)
	out, err := ExecuteSpec(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	done, _ := json.Marshal(completeRequest{WorkerID: "w", LeaseID: lease.LeaseID, Outcome: out})
	if status, rb := postRaw(t, base, "/v1/dispatch/complete", done); status != http.StatusOK {
		t.Fatalf("in-bound complete: status %d: %s", status, rb)
	}
	if _, err := awaitTicket(t, tk, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
