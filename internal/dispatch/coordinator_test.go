package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"wavemin/internal/jobq"
)

// TestRequeuesCountOnlyRequeuedJobs pins Metrics.Requeues to jobs the
// queue really put back in a lane: a retryable fail that exhausts the
// retry budget and a sweep that only culls a dead job requeue nothing.
func TestRequeuesCountOnlyRequeuedJobs(t *testing.T) {
	spec := testSpec(t, 8, 0, false)
	requeues := func(tc *testCoord) int64 {
		tc.c.Close() // the sweeper has finished counting once Close returns
		return tc.c.MetricsSnapshot().Requeues
	}

	t.Run("retryable fail at the last attempt", func(t *testing.T) {
		tc := newTestCoord(t, 1, Options{LeaseTTL: time.Minute, MaxAttempts: 1})
		tk := tc.submit(spec, time.Minute)
		lease := leaseViaHTTP(t, tc.ts.URL)
		b, _ := json.Marshal(failRequest{WorkerID: "w", LeaseID: lease.LeaseID,
			Error: &RemoteError{Code: "worker_failed", Message: "dying"}, Retryable: true})
		if status, rb := postRaw(t, tc.ts.URL, "/v1/dispatch/fail", b); status != http.StatusOK {
			t.Fatalf("fail: status %d: %s", status, rb)
		}
		var rex *jobq.RetryExhaustedError
		if _, err := awaitTicket(t, tk, 10*time.Second); !errors.As(err, &rex) {
			t.Fatalf("ticket error %v, want RetryExhaustedError", err)
		}
		if n := requeues(tc); n != 0 {
			t.Fatalf("Requeues = %d for a job that was never requeued", n)
		}
	})

	t.Run("sweep culls a dead queued job", func(t *testing.T) {
		tc := newTestCoord(t, 1, Options{SweepInterval: 5 * time.Millisecond})
		// The deadline passes while the job waits: only the sweep sees it.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		tk, err := tc.q.SubmitLeasable(ctx, jobq.Normal, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := awaitTicket(t, tk, 10*time.Second); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ticket error %v, want the job's deadline", err)
		}
		if n := requeues(tc); n != 0 {
			t.Fatalf("Requeues = %d after a cull", n)
		}
	})

	t.Run("lapsed lease", func(t *testing.T) {
		tc := newTestCoord(t, 1, Options{LeaseTTL: 30 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
		tc.submit(spec, time.Minute)
		leaseViaHTTP(t, tc.ts.URL) // and never heartbeat
		deadline := time.Now().Add(10 * time.Second)
		for tc.q.Depth() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("lapsed lease was never requeued")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if n := requeues(tc); n != 1 {
			t.Fatalf("Requeues = %d, want 1", n)
		}
	})
}

// TestLeaseWithoutWait pins a lease request with waitMs 0: it answers at
// once, as one non-blocking lease — a ready job is granted, also while
// the queue drains, and no ready job is a 204, also once the drained
// queue is empty, where only a long poll reports 503 draining.
func TestLeaseWithoutWait(t *testing.T) {
	spec := testSpec(t, 8, 0, false)
	tc := newTestCoord(t, 1, Options{LeaseTTL: time.Minute, SweepInterval: time.Hour})
	lease := func(waitMs int64) (int, *leaseResponse) {
		t.Helper()
		b, _ := json.Marshal(leaseRequest{WorkerID: "w", WaitMs: waitMs})
		start := time.Now()
		status, rb := postRaw(t, tc.ts.URL, "/v1/dispatch/lease", b)
		if waitMs == 0 && time.Since(start) > 5*time.Second {
			t.Fatalf("waitMs 0 lease took %v", time.Since(start))
		}
		var lr leaseResponse
		if status == http.StatusOK {
			if err := json.Unmarshal(rb, &lr); err != nil || lr.Spec == nil || lr.Spec.Key != spec.Key {
				t.Fatalf("lease response %s (%v), want the submitted spec", rb, err)
			}
		}
		return status, &lr
	}
	complete := func(lr *leaseResponse) {
		t.Helper()
		b, _ := json.Marshal(completeRequest{WorkerID: "w", LeaseID: lr.LeaseID, Outcome: &Outcome{ResultJSON: []byte(`{}`)}})
		if status, rb := postRaw(t, tc.ts.URL, "/v1/dispatch/complete", b); status != http.StatusOK {
			t.Fatalf("complete: status %d: %s", status, rb)
		}
	}

	if status, _ := lease(0); status != http.StatusNoContent {
		t.Fatalf("empty queue: status %d, want 204", status)
	}
	tk := tc.submit(spec, time.Minute)
	status, lr := lease(0)
	if status != http.StatusOK {
		t.Fatalf("ready job: status %d, want 200", status)
	}
	complete(lr)
	if _, err := awaitTicket(t, tk, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// A Drain that gives up at once leaves the queue draining with the
	// job still outstanding.
	tk = tc.submit(spec, time.Minute)
	gaveUp, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tc.q.Drain(gaveUp); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with a job outstanding: %v, want context.Canceled", err)
	}
	if status, lr = lease(0); status != http.StatusOK {
		t.Fatalf("ready job while draining: status %d, want 200", status)
	}
	complete(lr)
	if _, err := awaitTicket(t, tk, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if status, _ := lease(0); status != http.StatusNoContent {
		t.Fatalf("drained queue: status %d, want 204", status)
	}
	if status, _ := lease(50); status != http.StatusServiceUnavailable {
		t.Fatalf("drained queue, long poll: status %d, want 503", status)
	}
}
