// Golden-file test for the dispatch span tree: lease, requeue, and
// retry events stitched with the worker's solver trace, rendered through
// obs.StripTiming. This extends the root-package determinism test
// (TestParallelDeterminismTrace) across the dispatch layer: the stripped
// bytes must be identical at every solver worker count, and identical to
// the pinned golden — worker identities, lease IDs, and wall clocks must
// never leak into span content.
package dispatch

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wavemin/internal/jobq"
	"wavemin/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from current output")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/dispatch -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// dispatchTraceBytes runs one fully scripted dispatch lifecycle — lease,
// heartbeat lapse, requeue, re-lease, complete — and returns the job's
// stripped trace bytes. Everything nondeterministic is under manual
// control: leases are taken directly off the queue (no real workers, no
// goroutine races) and expiry is driven explicitly.
func dispatchTraceBytes(t *testing.T, solverWorkers int) []byte {
	t.Helper()
	spec := testSpec(t, 12, solverWorkers, true)

	q := jobq.New(8, 1)
	c := NewCoordinator(q, Options{
		LeaseTTL:      time.Millisecond, // lapses on the first sweep below
		SweepInterval: time.Hour,        // sweeps are manual
		MaxAttempts:   3,
	})
	t.Cleanup(c.Close)

	tr := obs.New(obs.Options{})
	tk, err := q.SubmitLeasable(context.Background(), jobq.Normal, spec, TraceObserver(tr))
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}

	// Attempt 1: leased, heartbeats lapse, requeued.
	if _, ok := q.Lease(); !ok {
		t.Fatal("first lease: no job")
	}
	time.Sleep(5 * time.Millisecond)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("ExpireLeases = %d, want 1", n)
	}

	// Attempt 2: leased and completed with a real solve.
	l2, ok := q.Lease()
	if !ok {
		t.Fatal("second lease: no job")
	}
	out, err := ExecuteSpec(context.Background(), l2.Payload.(*JobSpec), 0)
	if err != nil {
		t.Fatalf("ExecuteSpec: %v", err)
	}
	if err := q.Complete(l2.ID, out); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if _, err := awaitTicket(t, tk, 10*time.Second); err != nil {
		t.Fatalf("outcome: %v", err)
	}

	var buf bytes.Buffer
	if err := obs.Encode(&buf, obs.StripTiming(tr.Events())); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestDispatchTraceGolden pins the dispatch span tree bytes — including
// a lease-lapse requeue and the adopted worker trace — and their
// independence from the solver worker count.
func TestDispatchTraceGolden(t *testing.T) {
	base := dispatchTraceBytes(t, 1)
	for _, workers := range []int{2, 4} {
		got := dispatchTraceBytes(t, workers)
		if !bytes.Equal(got, base) {
			t.Fatalf("stripped dispatch trace differs between solver workers=1 and workers=%d", workers)
		}
	}
	checkGolden(t, "dispatch_trace", base)
}

// TestTraceObserverEndsExhaustedAttempt: when a job runs out of retries,
// its last attempt span ends with outcome=exhausted — after a lapsed lease
// and after a retryable failure alike — instead of staying open with no
// outcome and no duration.
func TestTraceObserverEndsExhaustedAttempt(t *testing.T) {
	for _, lapse := range []bool{true, false} {
		q := jobq.New(4, 1)
		q.SetLeasePolicy(time.Millisecond, 1)
		tr := obs.New(obs.Options{})
		tk, err := q.SubmitLeasable(context.Background(), jobq.Normal, "payload", TraceObserver(tr))
		if err != nil {
			t.Fatal(err)
		}
		l, ok := q.Lease()
		if !ok {
			t.Fatal("Lease: no job")
		}
		time.Sleep(2 * time.Millisecond)
		if lapse {
			if n := q.ExpireLeases(); n != 1 {
				t.Fatalf("ExpireLeases = %d, want 1", n)
			}
		} else if err := q.Fail(l.ID, errors.New("worker lost"), true); err != nil {
			t.Fatal(err)
		}
		var exhausted *jobq.RetryExhaustedError
		if _, err := awaitTicket(t, tk, 10*time.Second); !errors.As(err, &exhausted) {
			t.Fatalf("lapse=%v: outcome %v, want a RetryExhaustedError", lapse, err)
		}
		q.Drain(context.Background())

		outcomes := map[string]string{}
		for _, ev := range tr.Events() {
			for _, a := range ev.Attrs {
				if a.Key == "outcome" {
					outcomes[ev.Path] = a.Value
				}
			}
			if ev.Timing.DurNS <= 0 {
				t.Errorf("lapse=%v: span %s still open (duration %d ns)", lapse, ev.Path, ev.Timing.DurNS)
			}
		}
		want := map[string]string{"dispatch[0]": "exhausted", "dispatch[0]/attempt[0]": "exhausted"}
		if !maps.Equal(outcomes, want) {
			t.Errorf("lapse=%v: outcomes %v, want %v", lapse, outcomes, want)
		}
	}
}
