package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"wavemin/internal/faultinject"
)

// ErrKilled reports that the worker was killed (Kill): it abandoned any
// leased job silently — no complete, no fail, no further heartbeats — so
// the coordinator sees exactly what a crashed process looks like.
var ErrKilled = errors.New("dispatch: worker killed")

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// ID identifies this worker in protocol messages (required).
	ID string
	// SolverWorkers caps solver parallelism on this machine (0 = uncapped;
	// results are identical for every cap).
	SolverWorkers int
	// Client issues the protocol requests; nil uses a default client.
	// Tests substitute transports here to simulate partitions.
	Client *http.Client
	// PollWait is the long-poll duration per lease request (default 2s).
	PollWait time.Duration
}

// The lease-poll backoff after a transport failure starts at
// retryBaseWait and doubles per consecutive failure up to retryMaxWait,
// with full jitter; any successful poll — including an empty 204 —
// resets it, so a restarting coordinator is not met by its whole fleet
// retrying in lockstep.
const (
	retryBaseWait = 100 * time.Millisecond
	retryMaxWait  = 5 * time.Second
)

// Worker pulls jobs from a coordinator and solves them: the client side
// of the dispatch protocol. Run loops lease → solve (heartbeating) →
// complete/fail until the context ends, the coordinator drains, or Kill.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	killed atomic.Bool
	cancel atomic.Value // context.CancelFunc installed by Run
}

// NewWorker validates opts and builds a worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, errors.New("dispatch: worker needs a coordinator URL")
	}
	if opts.ID == "" {
		return nil, errors.New("dispatch: worker needs an ID")
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Worker{opts: opts, client: client}, nil
}

// Kill emulates a worker crash: every in-flight solve, heartbeat, and
// poll is abandoned immediately and silently, and Run returns ErrKilled.
// The coordinator hears nothing further — recovery is entirely the lease
// sweeper's job. (The chaos suite's favorite button.)
func (w *Worker) Kill() {
	w.killed.Store(true)
	if c, ok := w.cancel.Load().(context.CancelFunc); ok {
		c()
	}
}

// Run is the worker loop. It returns nil when the coordinator reports it
// is draining (no further work will ever arrive), ErrKilled after Kill,
// or ctx.Err() when the context ends.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.cancel.Store(cancel)
	retryWait := retryBaseWait
	for {
		if w.killed.Load() {
			return ErrKilled
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.lease(ctx)
		if err != nil {
			if errors.Is(err, errDraining) {
				return nil
			}
			if w.killed.Load() {
				return ErrKilled
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Transient poll failure (coordinator restarting, network
			// blip): exponential backoff with full jitter, so a fleet of
			// workers spreads its retries instead of stampeding the
			// coordinator the instant it comes back.
			jittered := retryWait/2 + time.Duration(rand.Int63n(int64(retryWait/2)+1))
			select {
			case <-time.After(jittered):
			case <-ctx.Done():
				return ctx.Err()
			}
			retryWait = min(2*retryWait, retryMaxWait)
			continue
		}
		retryWait = retryBaseWait // the coordinator answered
		if lease == nil {
			continue // long poll elapsed with no work
		}
		w.serve(ctx, lease)
	}
}

// errDraining is the sentinel for a coordinator 503: intake is closed
// and the backlog is empty, so the worker can exit cleanly.
var errDraining = errors.New("dispatch: coordinator draining")

// lease long-polls the coordinator for the next job. A nil lease with a
// nil error means the poll elapsed without work.
func (w *Worker) lease(ctx context.Context) (*leaseResponse, error) {
	status, body, err := w.post(ctx, "/v1/dispatch/lease", leaseRequest{
		WorkerID: w.opts.ID,
		WaitMs:   w.opts.PollWait.Milliseconds(),
	})
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var lr leaseResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			return nil, fmt.Errorf("dispatch: lease response: %w", err)
		}
		if lr.Spec == nil || lr.LeaseID == "" {
			return nil, errors.New("dispatch: lease response missing spec or lease ID")
		}
		return &lr, nil
	case http.StatusServiceUnavailable:
		return nil, errDraining
	default:
		return nil, fmt.Errorf("dispatch: lease: unexpected status %d: %s", status, body)
	}
}

// serve runs one leased job: heartbeats in the background, solves in the
// foreground, and reports the outcome — unless the worker is killed or
// loses the lease first, in which case it abandons silently.
func (w *Worker) serve(ctx context.Context, lease *leaseResponse) {
	// jobCtx bounds the solve: worker shutdown, Kill, a lost lease, or
	// the job's own deadline all cancel it.
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat at a third of the TTL: two beats can be lost before the
	// lease lapses.
	ttl := time.Duration(lease.TTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-tick.C:
			}
			faultinject.At(faultinject.SiteWorkerHeartbeat)
			if w.killed.Load() {
				cancel()
				return
			}
			status, _, err := w.post(jobCtx, "/v1/dispatch/heartbeat", heartbeatRequest{
				WorkerID: w.opts.ID, LeaseID: lease.LeaseID,
			})
			if err != nil {
				continue // transient; the next beat may get through
			}
			if status != http.StatusOK {
				// Stale lease or expired job: the job is no longer ours.
				cancel()
				return
			}
		}
	}()

	outcome, rerr := w.runSpec(jobCtx, lease.Spec)
	cancel()
	<-hbDone

	if w.killed.Load() {
		return // crash semantics: abandon silently
	}
	if rerr != nil && rerr.Code == "crashed" {
		// A panicking solve is a worker defect, not a job verdict: abandon
		// silently and let the lease lapse, exactly like a real crash.
		return
	}

	// Report with a fresh context: jobCtx is already cancelled, and the
	// result of a finished solve should survive a worker shutdown race.
	repCtx, repCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer repCancel()
	if rerr != nil {
		// An "expired" verdict caused by this worker going away — not by
		// the job's own deadline — is the worker's fault: report it
		// retryable so the job requeues to a healthier holder.
		retryable := rerr.Code == "expired" && ctx.Err() != nil &&
			(lease.Deadline.IsZero() || time.Now().Before(lease.Deadline))
		_, _, _ = w.post(repCtx, "/v1/dispatch/fail", failRequest{
			WorkerID: w.opts.ID, LeaseID: lease.LeaseID, Error: rerr,
			Retryable: retryable,
		})
		return
	}
	// Echo the cache key so the coordinator can persist the result before
	// acknowledging the completion; a cache opt-out job omits it.
	key := lease.Spec.Key
	if lease.Spec.NoCache {
		key = ""
	}
	for attempt := 0; attempt < 3; attempt++ {
		status, _, err := w.post(repCtx, "/v1/dispatch/complete", completeRequest{
			WorkerID: w.opts.ID, LeaseID: lease.LeaseID, Outcome: outcome, Key: key,
		})
		if err == nil {
			_ = status // 200 applied; 409 stale (someone else owns the job now)
			return
		}
		select {
		case <-repCtx.Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// runSpec executes the leased spec with crash containment: a panic in
// the solver (or an injected one) surfaces as a "crashed" RemoteError so
// serve can abandon the lease the way a dead process would.
func (w *Worker) runSpec(ctx context.Context, spec *JobSpec) (outcome *Outcome, rerr *RemoteError) {
	defer func() {
		if p := recover(); p != nil {
			outcome, rerr = nil, &RemoteError{Code: "crashed", Message: fmt.Sprintf("worker panic: %v", p)}
		}
	}()
	faultinject.At(faultinject.SiteWorkerExecute)
	if w.killed.Load() {
		return nil, &RemoteError{Code: "crashed", Message: "worker killed"}
	}
	out, err := ExecuteSpec(ctx, spec, w.opts.SolverWorkers)
	if err != nil {
		var re *RemoteError
		if errors.As(err, &re) {
			return nil, re
		}
		return nil, &RemoteError{Code: "solver_failed", Message: err.Error()}
	}
	return out, nil
}

// post issues one protocol request and returns (status, body).
func (w *Worker) post(ctx context.Context, path string, payload any) (int, []byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("dispatch: marshal %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, maxWireBytes))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, rb, nil
}
