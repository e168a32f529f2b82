package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wavemin"
	"wavemin/internal/jobq"
)

// testSpec synthesizes a small design and wraps it in a JobSpec — the
// payload every dispatch test ships around. solverWorkers lands in
// Config.Workers (results are bitwise identical for every value).
func testSpec(t testing.TB, n, solverWorkers int, trace bool) *JobSpec {
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
	cfg := wavemin.Config{Samples: 16, MaxIntervals: 2, Workers: solverWorkers}
	key, err := d.CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &JobSpec{
		Tree:   json.RawMessage(buf.Bytes()),
		Config: cfg,
		Trace:  trace,
		Key:    key,
	}
}

// referenceBytes solves the spec once, uninterrupted and in-process —
// the canonical bytes every dispatched/requeued execution must match.
func referenceBytes(t testing.TB, spec *JobSpec) []byte {
	t.Helper()
	ref := *spec
	ref.Trace = false // the reference needs only the result bytes
	out, err := ExecuteSpec(context.Background(), &ref, 0)
	if err != nil {
		t.Fatalf("reference ExecuteSpec: %v", err)
	}
	return out.ResultJSON
}

// testCoord is a coordinator with its queue and an HTTP front for
// workers to join.
type testCoord struct {
	t  *testing.T
	q  *jobq.Queue
	c  *Coordinator
	ts *httptest.Server
}

func newTestCoord(t *testing.T, queueWorkers int, opts Options) *testCoord {
	t.Helper()
	q := jobq.New(64, queueWorkers)
	c := NewCoordinator(q, opts)
	mux := http.NewServeMux()
	c.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return &testCoord{t: t, q: q, c: c, ts: ts}
}

// submit enqueues a spec with the given deadline and returns its ticket.
func (tc *testCoord) submit(spec *JobSpec, timeout time.Duration) *jobq.Ticket {
	tc.t.Helper()
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		tc.t.Cleanup(cancel)
		spec = cloneSpec(spec)
		spec.Deadline = time.Now().Add(timeout)
	}
	tk, err := tc.q.SubmitLeasable(ctx, jobq.Normal, spec, nil)
	if err != nil {
		tc.t.Fatalf("SubmitLeasable: %v", err)
	}
	return tk
}

func cloneSpec(spec *JobSpec) *JobSpec {
	c := *spec
	return &c
}

// fleet manages live workers for chaos tests: spawn, kill, respawn.
type fleet struct {
	t     *testing.T
	tc    *testCoord
	opts  WorkerOptions
	mu    sync.Mutex
	next  int
	live  []*fleetWorker
	group sync.WaitGroup
}

type fleetWorker struct {
	w    *Worker
	done chan struct{}
}

func newFleet(t *testing.T, tc *testCoord, opts WorkerOptions) *fleet {
	t.Helper()
	opts.Coordinator = tc.ts.URL
	if opts.PollWait == 0 {
		opts.PollWait = 200 * time.Millisecond
	}
	f := &fleet{t: t, tc: tc, opts: opts}
	t.Cleanup(f.killAll)
	return f
}

// spawn starts one worker and returns it.
func (f *fleet) spawn() *fleetWorker {
	f.mu.Lock()
	f.next++
	id := f.opts.ID
	if id == "" {
		id = "w"
	}
	opts := f.opts
	opts.ID = id + "-" + itoa(f.next)
	f.mu.Unlock()

	w, err := NewWorker(opts)
	if err != nil {
		f.t.Fatalf("NewWorker: %v", err)
	}
	fw := &fleetWorker{w: w, done: make(chan struct{})}
	f.group.Add(1)
	go func() {
		defer f.group.Done()
		defer close(fw.done)
		_ = w.Run(context.Background())
	}()
	f.mu.Lock()
	f.live = append(f.live, fw)
	f.mu.Unlock()
	return fw
}

// killOne kills the i-th live worker (mod fleet size) and waits for its
// Run loop to exit. Returns false when the fleet is empty.
func (f *fleet) killOne(i int) bool {
	f.mu.Lock()
	if len(f.live) == 0 {
		f.mu.Unlock()
		return false
	}
	idx := i % len(f.live)
	fw := f.live[idx]
	f.live = append(f.live[:idx], f.live[idx+1:]...)
	f.mu.Unlock()
	fw.w.Kill()
	<-fw.done
	return true
}

// killAll tears the whole fleet down and waits for every Run loop.
func (f *fleet) killAll() {
	f.mu.Lock()
	live := f.live
	f.live = nil
	f.mu.Unlock()
	for _, fw := range live {
		fw.w.Kill()
	}
	f.group.Wait()
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// awaitTicket waits for a ticket with a test-sized timeout.
func awaitTicket(t *testing.T, tk *jobq.Ticket, timeout time.Duration) (any, error) {
	t.Helper()
	select {
	case <-tk.Done():
	case <-time.After(timeout):
		t.Fatal("ticket did not resolve in time")
	}
	return tk.Outcome()
}
