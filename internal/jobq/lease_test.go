package jobq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitTicket waits for a ticket to resolve, failing the test on timeout.
func waitTicket(t *testing.T, tk *Ticket) (any, error) {
	t.Helper()
	select {
	case <-tk.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("ticket did not resolve in time")
	}
	return tk.Outcome()
}

func TestLeaseCompleteResolvesTicket(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())

	var events []LeaseEventKind
	tk, err := q.SubmitLeasable(context.Background(), Normal, "payload-1", func(ev LeaseEvent) {
		events = append(events, ev.Kind)
	})
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}

	l, ok := q.Lease()
	if !ok {
		t.Fatal("Lease: no job available")
	}
	if l.Payload != "payload-1" {
		t.Fatalf("lease payload = %v, want payload-1", l.Payload)
	}
	if l.Attempt != 1 {
		t.Fatalf("lease attempt = %d, want 1", l.Attempt)
	}
	if err := q.Complete(l.ID, 42); err != nil {
		t.Fatalf("Complete: %v", err)
	}

	res, err := waitTicket(t, tk)
	if err != nil {
		t.Fatalf("outcome error: %v", err)
	}
	if res != 42 {
		t.Fatalf("outcome = %v, want 42", res)
	}
	if tk.Attempts() != 1 {
		t.Fatalf("attempts = %d, want 1", tk.Attempts())
	}
	want := []LeaseEventKind{LeaseGranted, LeaseCompleted}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events[%d] = %v, want %v", i, events[i], want[i])
		}
	}
}

func TestLeaseExpiryRequeuesAndExhausts(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	q.SetLeasePolicy(time.Millisecond, 2)

	var mu sync.Mutex
	var events []LeaseEvent
	tk, err := q.SubmitLeasable(context.Background(), Normal, "p", func(ev LeaseEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}

	// Attempt 1: lease, never heartbeat, let it lapse.
	l1, ok := q.Lease()
	if !ok {
		t.Fatal("first Lease: no job")
	}
	time.Sleep(5 * time.Millisecond)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("ExpireLeases = %d, want 1", n)
	}
	// The stale lease must no longer be usable.
	if err := q.Complete(l1.ID, "late"); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("Complete on expired lease: err = %v, want ErrUnknownLease", err)
	}

	// Attempt 2: lease again (budget is 2), let it lapse → exhausted.
	l2, ok := q.Lease()
	if !ok {
		t.Fatal("second Lease: no job")
	}
	if l2.Attempt != 2 {
		t.Fatalf("second lease attempt = %d, want 2", l2.Attempt)
	}
	time.Sleep(5 * time.Millisecond)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("second ExpireLeases = %d, want 1", n)
	}

	_, err = waitTicket(t, tk)
	var rex *RetryExhaustedError
	if !errors.As(err, &rex) {
		t.Fatalf("outcome err = %v, want *RetryExhaustedError", err)
	}
	if rex.Attempts != 2 {
		t.Fatalf("exhausted attempts = %d, want 2", rex.Attempts)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []LeaseEventKind{LeaseGranted, LeaseRequeued, LeaseGranted, LeaseExhausted}
	if len(events) != len(want) {
		t.Fatalf("event kinds = %v, want %v", events, want)
	}
	for i := range want {
		if events[i].Kind != want[i] {
			t.Fatalf("events[%d].Kind = %v, want %v", i, events[i].Kind, want[i])
		}
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	q.SetLeasePolicy(50*time.Millisecond, 3)

	tk, err := q.SubmitLeasable(context.Background(), Normal, "p", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}
	l, ok := q.Lease()
	if !ok {
		t.Fatal("Lease: no job")
	}
	// Keep the lease alive across several TTL windows.
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		ttl, err := q.Heartbeat(l.ID)
		if err != nil {
			t.Fatalf("Heartbeat %d: %v", i, err)
		}
		if ttl <= 0 {
			t.Fatalf("Heartbeat %d: ttl = %v, want > 0", i, ttl)
		}
		if n := q.ExpireLeases(); n != 0 {
			t.Fatalf("ExpireLeases after heartbeat %d = %d, want 0", i, n)
		}
	}
	if err := q.Complete(l.ID, "ok"); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if res, err := waitTicket(t, tk); err != nil || res != "ok" {
		t.Fatalf("outcome = (%v, %v), want (ok, nil)", res, err)
	}
}

func TestFailRetryableAndTerminal(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	q.SetLeasePolicy(time.Minute, 3)

	tk, err := q.SubmitLeasable(context.Background(), Normal, "p", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}

	// Retryable fail: requeued, not terminal.
	l1, _ := q.Lease()
	if err := q.Fail(l1.ID, errors.New("worker dying"), true); err != nil {
		t.Fatalf("retryable Fail: %v", err)
	}
	select {
	case <-tk.Done():
		t.Fatal("ticket resolved after retryable fail")
	default:
	}

	// Terminal fail: resolves with the cause.
	l2, ok := q.Lease()
	if !ok {
		t.Fatal("re-lease after retryable fail: no job")
	}
	cause := errors.New("solver rejected input")
	if err := q.Fail(l2.ID, cause, false); err != nil {
		t.Fatalf("terminal Fail: %v", err)
	}
	_, err = waitTicket(t, tk)
	if !errors.Is(err, cause) {
		t.Fatalf("outcome err = %v, want %v", err, cause)
	}
}

func TestQueuedJobWithDeadCtxIsCulledWithoutLease(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	tk, err := q.SubmitLeasable(ctx, Normal, "p", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}
	cancel()

	// Lease must not hand out the dead job.
	if l, ok := q.Lease(); ok {
		t.Fatalf("Lease granted dead-ctx job %v", l.ID)
	}
	_, err = waitTicket(t, tk)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("outcome err = %v, want context.Canceled", err)
	}
	if tk.Attempts() != 0 {
		t.Fatalf("attempts = %d, want 0 (no lease should have been granted)", tk.Attempts())
	}
}

func TestHeartbeatAfterJobDeadlineResolvesExpired(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	q.SetLeasePolicy(time.Minute, 3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tk, err := q.SubmitLeasable(ctx, Normal, "p", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}
	l, ok := q.Lease()
	if !ok {
		t.Fatal("Lease: no job")
	}
	cancel()
	if _, err := q.Heartbeat(l.ID); err == nil {
		t.Fatal("Heartbeat after job ctx cancel: want error")
	}
	_, err = waitTicket(t, tk)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("outcome err = %v, want context.Canceled", err)
	}
	// The lease is gone; completing it must be rejected.
	if err := q.Complete(l.ID, "late"); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("Complete after expiry: err = %v, want ErrUnknownLease", err)
	}
}

func TestDoubleCompleteRejected(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())

	tk, err := q.SubmitLeasable(context.Background(), Normal, "p", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}
	l, _ := q.Lease()
	if err := q.Complete(l.ID, "first"); err != nil {
		t.Fatalf("first Complete: %v", err)
	}
	if err := q.Complete(l.ID, "second"); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("double Complete: err = %v, want ErrUnknownLease", err)
	}
	res, _ := waitTicket(t, tk)
	if res != "first" {
		t.Fatalf("outcome = %v, want the FIRST completion to win", res)
	}
}

func TestLeaseWaitBlocksUntilWork(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())

	got := make(chan *Lease, 1)
	go func() {
		l, err := q.LeaseWait(context.Background())
		if err != nil {
			t.Errorf("LeaseWait: %v", err)
			close(got)
			return
		}
		got <- l
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	tk, err := q.SubmitLeasable(context.Background(), High, "late-arrival", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}
	select {
	case l := <-got:
		if l == nil {
			t.Fatal("LeaseWait failed")
		}
		if l.Payload != "late-arrival" {
			t.Fatalf("payload = %v", l.Payload)
		}
		if err := q.Complete(l.ID, "ok"); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LeaseWait did not wake on submission")
	}
	if _, err := waitTicket(t, tk); err != nil {
		t.Fatalf("outcome: %v", err)
	}
}

func TestLeaseWaitHonorsCtxAndDrain(t *testing.T) {
	q := New(4, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.LeaseWait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("LeaseWait with expiring ctx: err = %v, want DeadlineExceeded", err)
	}

	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := q.LeaseWait(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("LeaseWait after drain: err = %v, want ErrDraining", err)
	}
}

func TestDrainWaitsForLeasedJobs(t *testing.T) {
	q := New(4, 1)
	tk, err := q.SubmitLeasable(context.Background(), Normal, "p", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}
	l, ok := q.Lease()
	if !ok {
		t.Fatal("Lease: no job")
	}

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the leased job resolved", err)
	case <-time.After(30 * time.Millisecond):
	}

	if err := q.Complete(l.ID, "done"); err != nil {
		t.Fatalf("Complete during drain: %v", err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not finish after the leased job resolved")
	}
	if res, err := waitTicket(t, tk); err != nil || res != "done" {
		t.Fatalf("outcome = (%v, %v)", res, err)
	}
}

func TestLeaseExecutorRunsLeasableJobs(t *testing.T) {
	q := New(8, 2)
	defer q.Drain(context.Background())
	q.SetLeaseExecutor(func(ctx context.Context, payload any) (any, error) {
		return fmt.Sprintf("exec:%v", payload), nil
	})

	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		tk, err := q.SubmitLeasable(context.Background(), Normal, i, nil)
		if err != nil {
			t.Fatalf("SubmitLeasable %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		res, err := waitTicket(t, tk)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if want := fmt.Sprintf("exec:%d", i); res != want {
			t.Fatalf("job %d result = %v, want %v", i, res, want)
		}
	}
}

func TestLeaseExecutorPanicFailsJobNotPool(t *testing.T) {
	q := New(8, 1)
	defer q.Drain(context.Background())
	q.SetLeaseExecutor(func(ctx context.Context, payload any) (any, error) {
		if payload == "boom" {
			panic("executor exploded")
		}
		return "ok", nil
	})

	bad, err := q.SubmitLeasable(context.Background(), Normal, "boom", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}
	good, err := q.SubmitLeasable(context.Background(), Normal, "fine", nil)
	if err != nil {
		t.Fatalf("SubmitLeasable: %v", err)
	}
	if _, err := waitTicket(t, bad); err == nil {
		t.Fatal("panicking job resolved without error")
	}
	// The pool worker must have survived the panic to run this one.
	if res, err := waitTicket(t, good); err != nil || res != "ok" {
		t.Fatalf("job after panic = (%v, %v), want (ok, nil)", res, err)
	}
}

// TestLeaseExecutorRetryableRequeues: an executor error marked
// Retryable is the executor's fault, so the pool puts the job back in
// its lane against the retry budget, as a retryable Fail does.
func TestLeaseExecutorRetryableRequeues(t *testing.T) {
	q := New(8, 1)
	defer q.Drain(context.Background())
	q.SetLeasePolicy(time.Minute, 3)
	calls := map[any]int{}
	q.SetLeaseExecutor(func(ctx context.Context, payload any) (any, error) {
		calls[payload]++ // one pool worker: no concurrent calls
		if payload == "flaky" && calls[payload] > 1 {
			return "ok", nil
		}
		return nil, Retryable(errors.New("store: disk full"))
	})

	flaky, err := q.SubmitLeasable(context.Background(), Normal, "flaky", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := waitTicket(t, flaky); err != nil || res != "ok" || flaky.Attempts() != 2 {
		t.Fatalf("flaky job = (%v, %v) after %d attempts, want (ok, nil) after 2", res, err, flaky.Attempts())
	}

	broken, err := q.SubmitLeasable(context.Background(), Normal, "broken", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = waitTicket(t, broken)
	var rex *RetryExhaustedError
	if !errors.As(err, &rex) || rex.Attempts != 3 {
		t.Fatalf("always-retryable job: %v, want RetryExhaustedError after 3 attempts", err)
	}
	if want := "jobq: job failed after 3 lease attempts (last: store: disk full)"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if got := q.Snapshot().Requeued; got != 3 { // flaky once, broken twice
		t.Fatalf("Requeued = %d, want 3", got)
	}
}
