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
