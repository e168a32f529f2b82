// Package jobq is a bounded, prioritized lease queue with graceful
// drain — the execution backbone of the wavemind batch optimization
// service.
//
// Every job carries an opaque payload in one of three priority lanes,
// served highest lane first, FIFO within a lane, with a starvation
// guard: a lane passed over for fairShare consecutive dequeues gets the
// next slot, so a continuous high-priority stream cannot pin
// low-priority work in the backlog forever. The queue is bounded: when
// the backlog is at capacity a submission fails fast with ErrFull so the
// caller can push back (HTTP 429) instead of letting latency grow
// without bound. Draining stops intake (ErrDraining) while every job
// already accepted runs to a terminal state — the SIGTERM story.
//
// A job is granted either to an external consumer as a lease
// (Lease/LeaseWait — the substrate of the internal/dispatch
// coordinator/worker layer) or to the queue's own worker pool, which
// runs it through the executor installed with SetLeaseExecutor. A lease
// is exclusive, heartbeat-renewed ownership for the queue's lease TTL.
// Complete and Fail resolve it; a lease whose heartbeats lapse
// (ExpireLeases) puts the job back at the front of its lane and counts
// an attempt, until the retry budget is spent and the job fails with
// *RetryExhaustedError. The submitter observes the whole lifecycle
// through a Ticket and an optional per-job event callback.
//
// The queue does not time jobs out: each job carries the context it was
// submitted with, so per-job deadlines (which keep ticking while the job
// waits in the backlog and while it is leased) are enforced by the
// executor's own context plumbing and by the cull in the pool,
// Lease and ExpireLeases, which resolves a dead-context job without
// handing it to anyone.
package jobq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wavemin/internal/wal"
)

// Priority selects the lane. Higher priorities are always dequeued first;
// within a lane, jobs run in submission order.
type Priority int

const (
	High Priority = iota
	Normal
	Low
	numLanes
)

// fairShare is the starvation bound: a lane with work that has been
// passed over this many consecutive dequeues is serviced next, ahead of
// higher-priority lanes. Strict priority below the bound, bounded wait
// above it.
const fairShare = 8

// String returns the wire name of the priority.
func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Normal:
		return "normal"
	case Low:
		return "low"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority parses a wire-form priority. The empty string means
// Normal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "high":
		return High, nil
	case "normal", "":
		return Normal, nil
	case "low":
		return Low, nil
	default:
		return Normal, fmt.Errorf("jobq: unknown priority %q (want high, normal, or low)", s)
	}
}

// ErrFull reports that the backlog is at capacity; the caller should back
// off for about RetryAfter and resubmit.
var ErrFull = errors.New("jobq: queue full")

// ErrDraining reports that the queue has stopped accepting work (shutdown
// in progress).
var ErrDraining = errors.New("jobq: draining")

// ErrUnknownLease reports a lease ID that is not currently active: never
// granted, already resolved, or expired and requeued. A consumer holding
// such an ID no longer owns the job and must not apply its result.
var ErrUnknownLease = errors.New("jobq: unknown, expired, or already-resolved lease")

// RetryExhaustedError reports that a job burned its whole retry
// budget on lapsed leases without ever being completed.
type RetryExhaustedError struct {
	Attempts int   // lease grants consumed
	Last     error // what ended the final attempt
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("jobq: job failed after %d lease attempts (last: %v)", e.Attempts, e.Last)
}

func (e *RetryExhaustedError) Unwrap() error { return e.Last }

type job struct {
	ctx    context.Context
	cancel context.CancelFunc // non-nil only for restored deadline contexts

	// Guarded by the queue mutex.
	id        uint64 // journal identity; 0 = never journaled
	pri       Priority
	payload   any
	ticket    *Ticket
	onEvent   func(LeaseEvent)
	attempts  int
	leaseID   string
	leaseExp  time.Time
	grantedAt time.Time
}

// Ticket is the submitter's handle on a job: Done closes when
// the job reaches a terminal state, after which Outcome returns the
// result a consumer completed it with, or the error that ended it.
type Ticket struct {
	done chan struct{}

	mu       sync.Mutex
	resolved bool
	result   any
	err      error
	attempts int
}

// Done returns a channel closed when the job is terminal.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Outcome returns the job's result or terminal error. Valid after Done
// is closed; before that it returns (nil, nil).
func (t *Ticket) Outcome() (any, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.result, t.err
}

// Attempts returns how many lease grants the job consumed.
func (t *Ticket) Attempts() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

func (t *Ticket) resolve(result any, err error, attempts int) {
	t.mu.Lock()
	if !t.resolved {
		t.resolved = true
		t.result = result
		t.err = err
		t.attempts = attempts
		close(t.done)
	}
	t.mu.Unlock()
}

// Lease is exclusive, time-bounded ownership of one job. The
// holder must Complete or Fail it before Deadline, or extend the lease
// with Heartbeat; otherwise the job is requeued for someone else.
type Lease struct {
	ID      string
	Attempt int // 1-based grant count, this grant included
	Payload any
	// Ctx is the submitter's context: its deadline keeps ticking while
	// the job is leased, and the holder should bound its work by it.
	Ctx      context.Context
	TTL      time.Duration
	Deadline time.Time // heartbeat deadline (lease expiry, not job deadline)
}

// LeaseEventKind enumerates the lifecycle transitions of a job.
type LeaseEventKind int

const (
	// LeaseGranted: the job was handed to a consumer (Local reports a
	// run on the queue's worker pool rather than an external lease).
	LeaseGranted LeaseEventKind = iota
	// LeaseRequeued: the lease lapsed (or failed retryably) and the job
	// went back to the front of its lane. Err carries the reason.
	LeaseRequeued
	// LeaseCompleted: terminal success; Result carries the outcome.
	LeaseCompleted
	// LeaseFailed: terminal, non-retryable failure; Err carries it.
	LeaseFailed
	// LeaseExpired: terminal; the job's own context ended (deadline or
	// cancellation). Err carries the context error.
	LeaseExpired
	// LeaseExhausted: terminal; the retry budget is spent. Err is a
	// *RetryExhaustedError.
	LeaseExhausted
)

// LeaseEvent is one lifecycle transition, delivered to the callback
// registered at submission. Events for one job are strictly ordered.
// The callback runs with the queue's internal lock held: it must be fast
// and MUST NOT call back into the Queue.
type LeaseEvent struct {
	Kind    LeaseEventKind
	Attempt int
	Local   bool // grant went to the worker pool's executor, not an external lease
	Result  any  // LeaseCompleted only
	Err     error
}

// Stats is a point-in-time snapshot of the queue.
type Stats struct {
	Queued      [numLanes]int // backlog per lane (High, Normal, Low)
	Running     int           // worker-pool executions in flight
	Leased      int           // active external leases
	Outstanding int           // jobs not yet terminal (queued, leased, or running)
	Executed    int64
	Rejected    int64 // submissions refused with ErrFull
	AvgJobDur   time.Duration
}

// Queue is a bounded priority job queue. Construct with New; safe for
// concurrent use.
type Queue struct {
	capacity int
	workers  int

	mu          sync.Mutex
	cond        *sync.Cond
	lanes       [numLanes][]*job
	starve      [numLanes]int
	queued      int
	running     map[*job]struct{} // jobs executing on the worker pool
	draining    bool
	executed    int64
	rejected    int64
	avgNs       float64 // EWMA of job wall time, ns
	leaseTTL    time.Duration
	maxAttempts int
	leaseSeq    int64
	leaseEpoch  string
	leases      map[string]*job
	outstanding int
	leaseExec   func(ctx context.Context, payload any) (any, error)

	// Durability (see journal.go). jrnl/codec are set once by
	// AttachJournal before serving; jobSeq assigns journal identities.
	jrnl        *wal.Writer
	codec       PayloadCodec
	jobSeq      uint64
	journalErrs atomic.Int64

	wg sync.WaitGroup
}

// New starts a queue with the given backlog capacity and worker-pool
// size. The pool runs jobs once a lease executor is installed
// (SetLeaseExecutor). Capacity bounds jobs WAITING (running and leased
// jobs don't count); capacity < 1 is raised to 1, workers < 1 to 1.
func New(capacity, workers int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	if workers < 1 {
		workers = 1
	}
	q := &Queue{
		capacity:    capacity,
		workers:     workers,
		leaseTTL:    15 * time.Second,
		maxAttempts: 3,
		// Lease IDs carry a per-incarnation epoch so that after a crash
		// and journal replay, a stale worker holding a pre-crash lease can
		// never collide with a freshly issued ID: its mutations are
		// rejected as stale instead of double-applying.
		leaseEpoch: fmt.Sprintf("%x", time.Now().UnixNano()),
		leases:     make(map[string]*job),
		running:    make(map[*job]struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// SetLeasePolicy sets the lease TTL (heartbeat deadline extension) and
// the retry budget. Defaults: 15s, 3 attempts.
func (q *Queue) SetLeasePolicy(ttl time.Duration, maxAttempts int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if ttl > 0 {
		q.leaseTTL = ttl
	}
	if maxAttempts > 0 {
		q.maxAttempts = maxAttempts
	}
}

// SetLeaseExecutor lets the worker pool run jobs: a pool worker picks
// the next job no external consumer has leased, executes fn on its
// payload, and resolves the ticket with the outcome — so a queue with
// zero external consumers still drains its work. A nil fn restores
// pull-only behavior.
func (q *Queue) SetLeaseExecutor(fn func(ctx context.Context, payload any) (any, error)) {
	q.mu.Lock()
	q.leaseExec = fn
	q.cond.Broadcast()
	q.mu.Unlock()
}

// SubmitLeasable enqueues a job in the lane for pri: payload travels to
// whichever consumer leases it, or to the lease executor. The context
// travels with the job — a deadline on it keeps counting down while the
// job waits. onEvent, if non-nil, observes every lifecycle transition;
// it runs under the queue lock and must not call back into the Queue.
// The returned Ticket resolves when the job is terminal. Returns ErrFull
// when the backlog is at capacity and ErrDraining after Drain has begun.
//
// With a journal attached (AttachJournal), the accept is ack-gated: the
// Ticket is returned only after the accept record is durable, so a
// submitter that has a Ticket holds a job that survives any crash. A
// journal failure rejects the submission.
func (q *Queue) SubmitLeasable(ctx context.Context, pri Priority, payload any, onEvent func(LeaseEvent)) (*Ticket, error) {
	return q.submit(ctx, pri, payload, onEvent, true)
}

// SubmitSubLease enqueues a job that is a sub-unit of an already-accepted
// parent job — internal/yield's Monte Carlo chunks. It behaves exactly
// like SubmitLeasable except the job is never journaled: a sub-unit is
// meaningless without its parent, and the parent is not journaled
// either (a crash loses a running yield job; the client resubmits), so
// a chunk record could never be replayed. The un-journaled job keeps id
// 0, which the journal layer treats as "skip every record for this
// job".
//
// Submissions during drain are refused with ErrDraining even though
// accepted jobs may still be running: once the queue is draining, pool
// workers exit as soon as the backlog empties, and a sub-lease enqueued
// after that would hang forever. Callers fall back to inline execution —
// which, by the chunk determinism contract, produces identical bytes.
func (q *Queue) SubmitSubLease(ctx context.Context, pri Priority, payload any, onEvent func(LeaseEvent)) (*Ticket, error) {
	return q.submit(ctx, pri, payload, onEvent, false)
}

// submit is the admission path of both submission kinds; journal says
// whether the accept is recorded (and ack-gated) when a journal is
// attached.
func (q *Queue) submit(ctx context.Context, pri Priority, payload any, onEvent func(LeaseEvent), journal bool) (*Ticket, error) {
	if pri < High || pri > Low {
		return nil, fmt.Errorf("jobq: invalid priority %d", int(pri))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return nil, ErrDraining
	}
	if q.queued >= q.capacity {
		q.rejected++
		q.mu.Unlock()
		return nil, ErrFull
	}
	t := &Ticket{done: make(chan struct{})}
	j := &job{ctx: ctx, pri: pri, payload: payload, ticket: t, onEvent: onEvent}
	var commit *wal.Commit
	if journal && q.jrnl != nil {
		enc, err := q.codec.Encode(payload)
		if err != nil {
			q.mu.Unlock()
			return nil, fmt.Errorf("jobq: encode payload for journal: %w", err)
		}
		q.jobSeq++
		j.id = q.jobSeq
		var dl int64
		if d, ok := ctx.Deadline(); ok {
			dl = d.UnixNano()
		}
		commit, err = q.appendJournalLocked(opAccept, j, enc, dl)
		if err != nil {
			q.journalErrs.Add(1)
			q.mu.Unlock()
			return nil, fmt.Errorf("jobq: journal accept: %w", err)
		}
	}
	q.lanes[pri] = append(q.lanes[pri], j)
	q.queued++
	q.outstanding++
	q.cond.Broadcast()
	q.mu.Unlock()
	if commit != nil {
		if err := commit.Wait(); err != nil {
			// Not durable: withdraw the job if nothing grabbed it yet so
			// the caller's rejection is honest. If it was already picked
			// up it will run — the caller was told "no" and a duplicate
			// resubmission is deduplicated downstream by content key.
			q.journalErrs.Add(1)
			q.mu.Lock()
			if q.removeQueuedLocked(j) {
				q.queued--
				q.resolveLocked(j, nil, err, LeaseFailed)
			}
			q.mu.Unlock()
			return nil, fmt.Errorf("jobq: journal accept not durable: %w", err)
		}
	}
	return t, nil
}

func (q *Queue) emitLocked(j *job, ev LeaseEvent) {
	if j.onEvent != nil {
		j.onEvent(ev)
	}
}

// resolveLocked moves a job to a terminal state: journals the
// transition, emits the event, resolves the ticket, and releases the
// outstanding slot. Caller holds q.mu and has already removed the job
// from lanes/leases. The returned commit (nil when not journaled) lets
// ack-gated callers wait for durability after unlocking; everyone else
// ignores it and the record rides the next group commit.
func (q *Queue) resolveLocked(j *job, result any, err error, kind LeaseEventKind) *wal.Commit {
	var op string
	switch kind {
	case LeaseCompleted:
		op = opComplete
	case LeaseFailed:
		op = opFail
	case LeaseExpired:
		op = opExpire
	case LeaseExhausted:
		op = opExhaust
	}
	var commit *wal.Commit
	if op != "" {
		var jerr error
		commit, jerr = q.appendJournalLocked(op, j, nil, 0)
		if jerr != nil {
			q.journalErrs.Add(1)
		}
	}
	if j.cancel != nil {
		j.cancel()
	}
	q.emitLocked(j, LeaseEvent{Kind: kind, Attempt: j.attempts, Result: result, Err: err})
	j.ticket.resolve(result, err, j.attempts)
	q.outstanding--
	q.cond.Broadcast()
	return commit
}

// cullLocked resolves queued jobs whose context already ended, so an
// expired job never costs a lease grant or an executor run.
func (q *Queue) cullLocked() int {
	n := 0
	for lane := range q.lanes {
		kept := q.lanes[lane][:0]
		for _, j := range q.lanes[lane] {
			if j.ctx.Err() != nil {
				q.queued--
				q.resolveLocked(j, nil, j.ctx.Err(), LeaseExpired)
				n++
				continue
			}
			kept = append(kept, j)
		}
		// Zero the tail so dropped jobs don't linger in the backing array.
		for i := len(kept); i < len(q.lanes[lane]); i++ {
			q.lanes[lane][i] = nil
		}
		q.lanes[lane] = kept
	}
	return n
}

// pickLocked removes and returns the next job: strict priority with the
// fairShare starvation guard, FIFO within a lane.
func (q *Queue) pickLocked() *job {
	chosen := -1
	for lane := range q.lanes {
		if len(q.lanes[lane]) > 0 && q.starve[lane] >= fairShare {
			chosen = lane
			break
		}
	}
	if chosen < 0 {
		for lane := range q.lanes {
			if len(q.lanes[lane]) > 0 {
				chosen = lane
				break
			}
		}
	}
	if chosen < 0 {
		return nil
	}
	lane := q.lanes[chosen]
	j := lane[0]
	copy(lane, lane[1:])
	lane[len(lane)-1] = nil
	q.lanes[chosen] = lane[:len(lane)-1]
	q.queued--
	q.starve[chosen] = 0
	for lane := range q.lanes {
		if lane != chosen && len(q.lanes[lane]) > 0 {
			q.starve[lane]++
		}
	}
	return j
}

// worker runs jobs through the lease executor until drain empties the
// backlog.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		var j *job
		for {
			q.cullLocked()
			if q.leaseExec != nil {
				if j = q.pickLocked(); j != nil {
					break
				}
			}
			if q.draining && q.queued == 0 {
				q.mu.Unlock()
				return
			}
			q.cond.Wait()
		}
		j.attempts++
		exec := q.leaseExec
		q.running[j] = struct{}{}
		q.journalAsyncLocked(opGrant, j)
		q.emitLocked(j, LeaseEvent{Kind: LeaseGranted, Attempt: j.attempts, Local: true})
		q.mu.Unlock()

		start := time.Now()
		result, err := runLeaseExec(exec, j.ctx, j.payload)
		dur := time.Since(start)

		q.mu.Lock()
		delete(q.running, j)
		q.executed++
		q.observeLocked(dur)
		switch {
		case err == nil:
			q.resolveLocked(j, result, nil, LeaseCompleted)
		case j.ctx.Err() != nil:
			// As in Fail: a failure after the job's own context ended is
			// an expiry, whatever the executor reported.
			q.resolveLocked(j, nil, j.ctx.Err(), LeaseExpired)
		default:
			q.resolveLocked(j, nil, err, LeaseFailed)
		}
		q.mu.Unlock()
	}
}

// runLeaseExec runs the lease executor with the panic/expiry guards the
// worker pool needs: a dead job context short-circuits without invoking
// the executor, and an executor panic becomes a job failure rather than
// a dead pool worker.
func runLeaseExec(exec func(ctx context.Context, payload any) (any, error), ctx context.Context, payload any) (result any, err error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	defer func() {
		if p := recover(); p != nil {
			result, err = nil, fmt.Errorf("jobq: lease executor panic: %v", p)
		}
	}()
	return exec(ctx, payload)
}

// observeLocked folds one job duration into the EWMA behind RetryAfter.
// α=0.2: smooth enough for a Retry-After estimate, responsive enough to
// follow workload shifts.
func (q *Queue) observeLocked(dur time.Duration) {
	if dur < 0 {
		return
	}
	if q.avgNs == 0 {
		q.avgNs = float64(dur)
	} else {
		q.avgNs += 0.2 * (float64(dur) - q.avgNs)
	}
}

// Lease grants exclusive ownership of the next queued job, if one is
// ready. The returned lease must be completed, failed, or heartbeat-
// renewed before its Deadline, or the job is requeued.
func (q *Queue) Lease() (*Lease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.leaseLocked()
}

func (q *Queue) leaseLocked() (*Lease, bool) {
	q.cullLocked()
	j := q.pickLocked()
	if j == nil {
		return nil, false
	}
	j.attempts++
	q.leaseSeq++
	j.leaseID = fmt.Sprintf("L-%s-%08d", q.leaseEpoch, q.leaseSeq)
	now := time.Now()
	j.leaseExp = now.Add(q.leaseTTL)
	j.grantedAt = now
	q.leases[j.leaseID] = j
	// Grants are journaled but not ack-gated: a lost grant record just
	// means replay sees the job as still queued, which is where a
	// crashed coordinator's leases end up anyway.
	q.journalAsyncLocked(opGrant, j)
	q.emitLocked(j, LeaseEvent{Kind: LeaseGranted, Attempt: j.attempts})
	return &Lease{
		ID:       j.leaseID,
		Attempt:  j.attempts,
		Payload:  j.payload,
		Ctx:      j.ctx,
		TTL:      q.leaseTTL,
		Deadline: j.leaseExp,
	}, true
}

// LeaseWait blocks until a job is available, ctx ends, or the queue is
// draining with no work left (ErrDraining) — the
// long-poll primitive behind the dispatch coordinator's lease endpoint.
// While draining it still grants leases: accepted work must finish.
func (q *Queue) LeaseWait(ctx context.Context) (*Lease, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if l, ok := q.leaseLocked(); ok {
			return l, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if q.draining && q.outstanding == 0 {
			return nil, ErrDraining
		}
		q.cond.Wait()
	}
}

// Heartbeat extends a lease by the queue's TTL and returns the new TTL.
// ErrUnknownLease means the holder no longer owns the job (resolved, or
// expired and requeued). A dead job context resolves the job and returns
// the context error — the holder should stop working on it.
func (q *Queue) Heartbeat(leaseID string) (time.Duration, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.leases[leaseID]
	if !ok {
		return 0, ErrUnknownLease
	}
	if err := j.ctx.Err(); err != nil {
		delete(q.leases, leaseID)
		q.resolveLocked(j, nil, err, LeaseExpired)
		return 0, fmt.Errorf("jobq: lease %s: job context: %w", leaseID, err)
	}
	j.leaseExp = time.Now().Add(q.leaseTTL)
	return q.leaseTTL, nil
}

// Complete resolves a leased job with its result. ErrUnknownLease means
// the lease is stale (expired, requeued, or already resolved) and the
// result was NOT applied — the at-most-once guard against late or
// replayed completions. With a journal attached, Complete returns only
// after the terminal record is durable, so the caller's acknowledgement
// to the worker never outruns the journal.
func (q *Queue) Complete(leaseID string, result any) error {
	q.mu.Lock()
	j, ok := q.leases[leaseID]
	if !ok {
		q.mu.Unlock()
		return ErrUnknownLease
	}
	delete(q.leases, leaseID)
	q.executed++
	q.observeLocked(time.Since(j.grantedAt))
	commit := q.resolveLocked(j, result, nil, LeaseCompleted)
	q.mu.Unlock()
	q.waitJournal(commit)
	return nil
}

// Fail resolves a leased job with an error. Retryable failures (the
// holder is dying, not the job) requeue the job against the retry
// budget; non-retryable ones (the job itself failed) are terminal.
func (q *Queue) Fail(leaseID string, cause error, retryable bool) error {
	q.mu.Lock()
	j, ok := q.leases[leaseID]
	if !ok {
		q.mu.Unlock()
		return ErrUnknownLease
	}
	delete(q.leases, leaseID)
	if cause == nil {
		cause = errors.New("jobq: job failed")
	}
	var commit *wal.Commit
	switch {
	case j.ctx.Err() != nil:
		commit = q.resolveLocked(j, nil, j.ctx.Err(), LeaseExpired)
	case !retryable:
		commit = q.resolveLocked(j, nil, cause, LeaseFailed)
	default:
		q.requeueLocked(j, cause)
	}
	q.mu.Unlock()
	q.waitJournal(commit)
	return nil
}

// requeueLocked puts a lapsed or retryably-failed job back at the FRONT
// of its lane — a retried job keeps its place in line — or fails it when
// the retry budget is spent.
func (q *Queue) requeueLocked(j *job, cause error) {
	j.leaseID = ""
	if j.attempts >= q.maxAttempts {
		q.resolveLocked(j, nil, &RetryExhaustedError{Attempts: j.attempts, Last: cause}, LeaseExhausted)
		return
	}
	q.journalAsyncLocked(opRequeue, j)
	q.emitLocked(j, LeaseEvent{Kind: LeaseRequeued, Attempt: j.attempts, Err: cause})
	q.lanes[j.pri] = append([]*job{j}, q.lanes[j.pri]...)
	q.queued++
	q.cond.Broadcast()
}

// ExpireLeases requeues every lease whose heartbeat deadline has passed
// (crashed or partitioned holder) and resolves jobs — queued or leased —
// whose own context has ended. The dispatch coordinator calls this on a
// timer; tests call it directly. Returns how many jobs changed state.
func (q *Queue) ExpireLeases() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.cullLocked()
	now := time.Now()
	for id, j := range q.leases {
		if err := j.ctx.Err(); err != nil {
			delete(q.leases, id)
			q.resolveLocked(j, nil, err, LeaseExpired)
			n++
			continue
		}
		if now.After(j.leaseExp) {
			delete(q.leases, id)
			q.requeueLocked(j, fmt.Errorf("jobq: lease %s expired (heartbeat lapsed)", id))
			n++
		}
	}
	return n
}

// Drain stops intake and waits until every accepted job — queued,
// running on the pool, leased, or retrying — has reached a terminal
// state, or until ctx expires. After Drain begins, submissions get
// ErrDraining while the pool and Lease keep serving: accepted work
// must finish wherever it runs. Drain is idempotent; concurrent calls
// all wait for the same completion.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.draining = true
	q.cond.Broadcast()
	q.mu.Unlock()
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		q.mu.Lock()
		for q.outstanding > 0 {
			q.cond.Wait()
		}
		q.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Depth returns the current backlog size (all lanes, excluding running
// jobs).
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// RetryAfter estimates how long a rejected caller should wait before
// resubmitting: the time for the pool to work one queue-capacity of
// backlog off, based on the average job duration seen so far. Before any
// sample exists it returns 1s. Always positive and finite — clamped to
// [1s, 1h] — whatever the concurrent duration updates did to the
// estimate.
func (q *Queue) RetryAfter() time.Duration {
	q.mu.Lock()
	avg := q.avgNs
	depth := q.queued
	q.mu.Unlock()
	if math.IsNaN(avg) || math.IsInf(avg, 0) || avg <= 0 {
		return time.Second
	}
	slots := (depth + q.workers) / q.workers
	est := time.Duration(avg * float64(slots))
	switch {
	case est < time.Second:
		return time.Second
	case est > time.Hour:
		return time.Hour
	}
	return est.Round(time.Second)
}

// Snapshot returns the queue's counters.
func (q *Queue) Snapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Running:     len(q.running),
		Leased:      len(q.leases),
		Outstanding: q.outstanding,
		Executed:    q.executed,
		Rejected:    q.rejected,
		AvgJobDur:   time.Duration(q.avgNs),
	}
	for lane := range q.lanes {
		st.Queued[lane] = len(q.lanes[lane])
	}
	return st
}
