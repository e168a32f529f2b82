package jobq

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// newFuncQueue starts a queue whose worker pool runs each job's payload
// as a function of the job context: submitted work executed by the
// pool, with no external consumer.
func newFuncQueue(capacity, workers int) *Queue {
	q := New(capacity, workers)
	q.SetLeaseExecutor(func(ctx context.Context, payload any) (any, error) {
		payload.(func(context.Context))(ctx)
		return nil, nil
	})
	return q
}

// submitFn enqueues fn as a job for a newFuncQueue pool.
func submitFn(q *Queue, ctx context.Context, pri Priority, fn func(context.Context)) error {
	_, err := q.SubmitLeasable(ctx, pri, fn, nil)
	return err
}

func TestPriorityOrdering(t *testing.T) {
	q := newFuncQueue(16, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var order []string

	// Occupy the single worker so the next submissions pile up in the
	// backlog, then release and observe drain order.
	if err := submitFn(q, nil, Normal, func(context.Context) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	record := func(name string) func(context.Context) {
		return func(context.Context) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	// Submit in worst order: low first, high last.
	for _, s := range []struct {
		pri  Priority
		name string
	}{
		{Low, "low1"}, {Low, "low2"}, {Normal, "norm1"}, {High, "high1"}, {Normal, "norm2"}, {High, "high2"},
	} {
		if err := submitFn(q, nil, s.pri, record(s.name)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"high1", "high2", "norm1", "norm2", "low1", "low2"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestCapacityBackpressure(t *testing.T) {
	q := newFuncQueue(2, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	if err := submitFn(q, nil, Normal, func(context.Context) {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; backlog empty
	if err := submitFn(q, nil, Normal, func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	if err := submitFn(q, nil, High, func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
	// Backlog now at capacity 2: next submission must fail fast,
	// whatever its priority.
	if err := submitFn(q, nil, High, func(context.Context) {}); !errors.Is(err, ErrFull) {
		t.Fatalf("got %v, want ErrFull", err)
	}
	if ra := q.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter %v < 1s floor", ra)
	}
	if st := q.Snapshot(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	close(release)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := q.Snapshot(); st.Executed != 3 {
		t.Fatalf("executed = %d, want 3", st.Executed)
	}
}

func TestDrainCompletesBacklogAndRejectsNew(t *testing.T) {
	q := newFuncQueue(64, 2)
	var mu sync.Mutex
	ran := 0
	slow := make(chan struct{})
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		if err := submitFn(q, nil, Normal, func(context.Context) {
			started <- struct{}{}
			<-slow
			mu.Lock()
			ran++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started
	// Both workers are mid-job; queue more work behind them.
	for i := 0; i < 5; i++ {
		if err := submitFn(q, nil, Low, func(context.Context) {
			mu.Lock()
			ran++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	// Intake must close as soon as drain begins, even while jobs run.
	deadline := time.After(2 * time.Second)
	for {
		err := submitFn(q, nil, Normal, func(context.Context) {})
		if errors.Is(err, ErrDraining) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected submit error %v", err)
		}
		select {
		case <-deadline:
			t.Fatal("intake never closed")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(slow)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran < 7 {
		t.Fatalf("drain returned with %d jobs run, want at least 7 (in-flight + backlog)", ran)
	}
}

func TestDrainHonorsContext(t *testing.T) {
	q := newFuncQueue(4, 1)
	hung := make(chan struct{})
	started := make(chan struct{})
	if err := submitFn(q, nil, Normal, func(context.Context) {
		close(started)
		<-hung
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	close(hung)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobContextTravels(t *testing.T) {
	q := newFuncQueue(4, 1)
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	got := make(chan any, 1)
	if err := submitFn(q, ctx, Normal, func(jctx context.Context) {
		got <- jctx.Value(key{})
	}); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != "v" {
		t.Fatalf("job context value = %v", v)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidPriority(t *testing.T) {
	q := newFuncQueue(1, 1)
	if err := submitFn(q, nil, Priority(9), func(context.Context) {}); err == nil {
		t.Fatal("invalid priority accepted")
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Fatal("unknown priority parsed")
	}
	for s, want := range map[string]Priority{"high": High, "normal": Normal, "": Normal, "low": Low} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Fatalf("ParsePriority(%q) = %v, %v", s, got, err)
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSubmitters hammers SubmitLeasable from many goroutines
// under -race: every accepted job must execute exactly once and the
// counters must add up.
func TestParallelSubmitters(t *testing.T) {
	q := newFuncQueue(32, 4)
	var mu sync.Mutex
	acceptedN, rejectedN, ranN := 0, 0, 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := submitFn(q, nil, Priority(i%3), func(context.Context) {
					mu.Lock()
					ranN++
					mu.Unlock()
				})
				mu.Lock()
				if err == nil {
					acceptedN++
				} else if errors.Is(err, ErrFull) {
					rejectedN++
				} else {
					t.Errorf("submit: %v", err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ranN != acceptedN {
		t.Fatalf("ran %d of %d accepted jobs", ranN, acceptedN)
	}
	if acceptedN+rejectedN != 400 {
		t.Fatalf("accepted %d + rejected %d != 400", acceptedN, rejectedN)
	}
	st := q.Snapshot()
	if int(st.Executed) != acceptedN || int(st.Rejected) != rejectedN {
		t.Fatalf("stats %+v disagree with accepted=%d rejected=%d", st, acceptedN, rejectedN)
	}
}
