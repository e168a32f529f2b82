package jobq

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNoStarvationUnderHighPriorityStream pins the anti-starvation
// guarantee: a saturated queue fed a continuous high-priority stream
// must still drain low- and normal-priority jobs. Regression for the
// strict-priority scheduler, which would pin the low lanes forever.
func TestNoStarvationUnderHighPriorityStream(t *testing.T) {
	q := newFuncQueue(256, 1)
	defer q.Drain(context.Background())

	var lowDone, normalDone sync.WaitGroup
	const nLow, nNormal = 4, 4
	lowDone.Add(nLow)
	normalDone.Add(nNormal)
	for i := 0; i < nLow; i++ {
		if err := submitFn(q, context.Background(), Low, func(ctx context.Context) { lowDone.Done() }); err != nil {
			t.Fatalf("submit low %d: %v", i, err)
		}
	}
	for i := 0; i < nNormal; i++ {
		if err := submitFn(q, context.Background(), Normal, func(ctx context.Context) { normalDone.Done() }); err != nil {
			t.Fatalf("submit normal %d: %v", i, err)
		}
	}

	// Continuous high-priority stream: every time a high job finishes,
	// submit another, so the high lane is never empty while the stream
	// runs. Under strict priority the low/normal jobs above would never
	// be dequeued.
	stop := make(chan struct{})
	var streamWG sync.WaitGroup
	var resubmit func()
	resubmit = func() {
		select {
		case <-stop:
			return
		default:
		}
		streamWG.Add(1)
		err := submitFn(q, context.Background(), High, func(ctx context.Context) {
			defer streamWG.Done()
			resubmit()
		})
		if err != nil {
			streamWG.Done()
		}
	}
	// Prime a few in-flight high jobs so the lane stays saturated.
	for i := 0; i < 8; i++ {
		resubmit()
	}

	waitAll := func(wg *sync.WaitGroup, what string) {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s jobs starved: not drained under continuous high-priority stream", what)
		}
	}
	waitAll(&normalDone, "normal")
	waitAll(&lowDone, "low")
	close(stop)
	streamWG.Wait()
}

// TestFairShareBoundsStarvation pins the bound itself on a single
// deterministic dequeue sequence: with a full high lane and one low job,
// the low job runs after at most fairShare high jobs.
func TestFairShareBoundsStarvation(t *testing.T) {
	q := newFuncQueue(256, 1)
	defer q.Drain(context.Background())

	// Stall the single worker so we can enqueue a deterministic backlog.
	gate := make(chan struct{})
	if err := submitFn(q, context.Background(), High, func(ctx context.Context) { <-gate }); err != nil {
		t.Fatalf("submit gate: %v", err)
	}
	time.Sleep(10 * time.Millisecond) // worker picks up the gate job

	var order []string
	var mu sync.Mutex
	record := func(tag string) func(context.Context) {
		return func(ctx context.Context) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	if err := submitFn(q, context.Background(), Low, record("low")); err != nil {
		t.Fatalf("submit low: %v", err)
	}
	const nHigh = 3 * fairShare
	for i := 0; i < nHigh; i++ {
		if err := submitFn(q, context.Background(), High, record("high")); err != nil {
			t.Fatalf("submit high %d: %v", i, err)
		}
	}
	close(gate)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, tag := range order {
		if tag == "low" {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatalf("low job never ran; order = %v", order)
	}
	if pos > fairShare {
		t.Fatalf("low job ran at position %d, want ≤ %d (fairShare)", pos, fairShare)
	}
}

// TestRetryAfterPositiveFiniteUnderConcurrentUpdates hammers the EWMA
// estimator from many goroutines while reading RetryAfter, pinning that
// the estimate stays positive and finite throughout.
func TestRetryAfterPositiveFiniteUnderConcurrentUpdates(t *testing.T) {
	q := newFuncQueue(1024, 8)
	defer q.Drain(context.Background())

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				ra := q.RetryAfter()
				if ra <= 0 {
					t.Errorf("RetryAfter = %v, want > 0", ra)
					return
				}
				if ra > time.Hour {
					t.Errorf("RetryAfter = %v, want ≤ 1h", ra)
					return
				}
			}
		}()
	}

	var jobs sync.WaitGroup
	for i := 0; i < 400; i++ {
		jobs.Add(1)
		err := submitFn(q, context.Background(), Priority(i%3), func(ctx context.Context) {
			defer jobs.Done()
			if rand := time.Duration(1); rand > 0 {
				time.Sleep(time.Microsecond)
			}
		})
		if err != nil {
			jobs.Done()
		}
	}
	jobs.Wait()
	stop.Store(true)
	readers.Wait()

	if ra := q.RetryAfter(); ra < time.Second || ra > time.Hour {
		t.Fatalf("final RetryAfter = %v, want within [1s, 1h]", ra)
	}
}
