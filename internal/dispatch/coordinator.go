package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wavemin/internal/jobq"
)

// Options configures a Coordinator. Zero values take the defaults noted.
type Options struct {
	// LeaseTTL is how long a granted lease stays valid without a
	// heartbeat (default 15s). Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per job before the job fails with a
	// *jobq.RetryExhaustedError (default 3).
	MaxAttempts int
	// SweepInterval is how often lapsed leases are requeued and dead-
	// context jobs culled (default LeaseTTL/4).
	SweepInterval time.Duration
	// LocalExec lets the queue's own worker pool execute jobs too, so a
	// coordinator with zero remote workers still makes progress — the
	// hybrid default for `wavemind -role=coordinator`, and the only
	// executor of a server that mounts no dispatch protocol.
	LocalExec bool
	// MaxWireBytes bounds a protocol request body (default 64 MiB).
	// Outcome bodies carry a full result plus trace events, so the
	// default is generous; operators fronting untrusted workers can
	// tighten it.
	MaxWireBytes int64
	// PersistResult, when set, makes completion durable-before-ack: it is
	// called with the job's cache key and canonical result bytes BEFORE
	// the completion is applied to the queue, and an error refuses the
	// completion (the worker's report is rejected, the lease eventually
	// lapses, and the job re-runs). Degraded results are not persisted.
	PersistResult func(key string, resultJSON []byte) error
	// ShardLabel, when set, names the shard this coordinator serves in a
	// sharded fleet (e.g. "s2"). It rides on lease grants so workers —
	// which may join any coordinator — can log which shard's work they
	// run. Leases themselves stay shard-local: a coordinator only ever
	// leases out jobs it owns.
	ShardLabel string
}

// maxLeaseWait bounds the long-poll duration of the lease endpoint;
// client waitMs beyond it is clamped.
const maxLeaseWait = 30 * time.Second

func (o Options) withDefaults() Options {
	if o.LeaseTTL == 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	if o.SweepInterval == 0 {
		o.SweepInterval = o.LeaseTTL / 4
	}
	if o.MaxWireBytes == 0 {
		o.MaxWireBytes = 64 << 20
	}
	return o
}

// Metrics is a snapshot of the coordinator's protocol counters.
type Metrics struct {
	Leases        int64 // lease grants handed to remote workers
	Heartbeats    int64 // accepted heartbeats
	Completions   int64 // accepted completions
	Failures      int64 // accepted failure reports
	Requeues      int64 // jobs requeued after a lapsed lease / retryable fail
	StaleRejected int64 // mutations rejected for a stale/unknown lease
}

// Coordinator owns the execution side of a jobq.Queue whose payloads are
// JobSpecs: the local executor (Options.LocalExec), the lease sweeper
// that puts lapsed leases back into the queue, and the HTTP
// lease/heartbeat/complete/fail endpoints remote workers pull over.
type Coordinator struct {
	q    *jobq.Queue
	opts Options

	// shardLabel is the live value of Options.ShardLabel: a sharded
	// fleet's routing map is a versioned, gossiped object, and the label
	// follows the adopted map (SetShardLabel), so lease grants always name
	// the map epoch the work was granted under. Read on every lease.
	shardLabel atomic.Value // string

	met struct {
		leases, heartbeats, completions, failures, requeues, staleRejected atomic.Int64
	}

	stopOnce sync.Once
	stop     chan struct{}
	sweeper  sync.WaitGroup
}

// NewCoordinator wires a coordinator onto q: it installs the lease
// policy (TTL, retry budget), optionally the local executor, and starts
// the lease sweeper. Call Close to stop the sweeper.
func NewCoordinator(q *jobq.Queue, opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{q: q, opts: opts, stop: make(chan struct{})}
	c.shardLabel.Store(opts.ShardLabel)
	q.SetLeasePolicy(opts.LeaseTTL, opts.MaxAttempts)
	if opts.LocalExec {
		q.SetLeaseExecutor(func(ctx context.Context, payload any) (any, error) {
			spec, ok := payload.(*JobSpec)
			if !ok {
				return nil, fmt.Errorf("dispatch: unexpected payload %T", payload)
			}
			// No cap here: the submitter already capped Config.Workers.
			out, err := ExecuteSpec(ctx, spec, 0)
			if err != nil {
				return nil, err
			}
			// Durable-before-ack: the result bytes reach stable storage
			// before the queue learns the job completed, so a journal that
			// says "complete" always has the bytes to back it up.
			if opts.PersistResult != nil && !out.Degraded && !spec.NoCache {
				if perr := opts.PersistResult(spec.Key, out.ResultJSON); perr != nil {
					return nil, fmt.Errorf("dispatch: persist result: %w", perr)
				}
			}
			return out, nil
		})
	}
	c.sweeper.Add(1)
	go c.sweep()
	return c
}

// sweep periodically requeues lapsed leases and culls dead-context jobs.
func (c *Coordinator) sweep() {
	defer c.sweeper.Done()
	tick := time.NewTicker(c.opts.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			if n := c.q.ExpireLeases(); n > 0 {
				c.met.requeues.Add(int64(n))
			}
		}
	}
}

// ShardLabel returns the label lease grants currently carry.
func (c *Coordinator) ShardLabel() string {
	s, _ := c.shardLabel.Load().(string)
	return s
}

// SetShardLabel updates the shard label on live lease grants — called by
// the routing layer when the node adopts a newer shard map, so grants
// issued after the flip name the new epoch. Safe for concurrent use with
// in-flight leases.
func (c *Coordinator) SetShardLabel(label string) {
	c.shardLabel.Store(label)
}

// Close stops the lease sweeper. It does not drain the queue — that is
// the owner's job (Server.Drain / Queue.Drain).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.sweeper.Wait()
}

// MetricsSnapshot returns the coordinator's protocol counters.
func (c *Coordinator) MetricsSnapshot() Metrics {
	return Metrics{
		Leases:        c.met.leases.Load(),
		Heartbeats:    c.met.heartbeats.Load(),
		Completions:   c.met.completions.Load(),
		Failures:      c.met.failures.Load(),
		Requeues:      c.met.requeues.Load(),
		StaleRejected: c.met.staleRejected.Load(),
	}
}

// --- wire messages --------------------------------------------------------

// leaseRequest is the body of POST /v1/dispatch/lease.
type leaseRequest struct {
	WorkerID string `json:"workerId"`
	// WaitMs long-polls: the coordinator holds the request up to this
	// long waiting for work before answering 204. 0 means no wait.
	WaitMs int64 `json:"waitMs"`
}

// leaseResponse is the 200 body of POST /v1/dispatch/lease.
type leaseResponse struct {
	LeaseID  string    `json:"leaseId"`
	Attempt  int       `json:"attempt"`
	TTLMs    int64     `json:"ttlMs"`
	Deadline time.Time `json:"deadline"` // job deadline (zero = none)
	Spec     *JobSpec  `json:"spec"`
	// Shard names the granting coordinator's shard in a sharded fleet
	// (Options.ShardLabel); empty on unsharded coordinators. Informational
	// for the worker — the lease protocol is identical either way.
	Shard string `json:"shard,omitempty"`
}

// heartbeatRequest is the body of POST /v1/dispatch/heartbeat.
type heartbeatRequest struct {
	WorkerID string `json:"workerId"`
	LeaseID  string `json:"leaseId"`
}

// completeRequest is the body of POST /v1/dispatch/complete.
type completeRequest struct {
	WorkerID string   `json:"workerId"`
	LeaseID  string   `json:"leaseId"`
	Outcome  *Outcome `json:"outcome"`
	// Key echoes the spec's cache key so a durable coordinator can
	// persist the result before applying the completion.
	Key string `json:"key,omitempty"`
}

// failRequest is the body of POST /v1/dispatch/fail.
type failRequest struct {
	WorkerID string       `json:"workerId"`
	LeaseID  string       `json:"leaseId"`
	Error    *RemoteError `json:"error"`
	// Retryable marks the failure as the worker's, not the job's: the
	// job is requeued against its retry budget instead of failing.
	Retryable bool `json:"retryable"`
}

// Register mounts the dispatch protocol on mux. Paths are fixed:
//
//	POST /v1/dispatch/lease      lease the next job (long-poll; 204 = no work)
//	POST /v1/dispatch/heartbeat  keep a lease alive
//	POST /v1/dispatch/complete   deliver a result
//	POST /v1/dispatch/fail       report a failure
//
// Every protocol violation — malformed body, stale lease, double
// completion — is a structured 4xx; the handlers never panic and a stale
// lease can never double-apply a result.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/dispatch/lease", c.handleLease)
	mux.HandleFunc("POST /v1/dispatch/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/dispatch/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/dispatch/fail", c.handleFail)
}

// maxWireBytes is the default protocol body bound; Options.MaxWireBytes
// overrides it per coordinator. Workers also use it to cap how much of a
// coordinator response they will read.
const maxWireBytes = 64 << 20

// decodeWire reads and decodes one protocol body into dst, returning a
// structured 4xx error for every malformed input.
func decodeWire(w http.ResponseWriter, r *http.Request, dst any, limit int64) *wireError {
	if limit <= 0 {
		limit = maxWireBytes
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &wireError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return &wireError{status: http.StatusBadRequest, code: "bad_request",
			message: fmt.Sprintf("reading request body: %v", err)}
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return &wireError{status: http.StatusBadRequest, code: "bad_request",
			message: fmt.Sprintf("request body: %v", err)}
	}
	return nil
}

// wireError is a structured protocol failure:
// {"error":{"code":...,"message":...}} with the HTTP status attached.
type wireError struct {
	status  int
	code    string
	message string
}

func writeWireError(w http.ResponseWriter, e *wireError) {
	writeWireJSON(w, e.status, map[string]any{
		"error": map[string]any{"code": e.code, "message": e.message},
	})
}

func writeWireJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func staleLease(w http.ResponseWriter, c *Coordinator) {
	c.met.staleRejected.Add(1)
	writeWireError(w, &wireError{status: http.StatusConflict, code: "unknown_lease",
		message: "lease is unknown, expired, or already resolved; the job is no longer yours"})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if werr := decodeWire(w, r, &req, c.opts.MaxWireBytes); werr != nil {
		writeWireError(w, werr)
		return
	}
	if req.WorkerID == "" {
		writeWireError(w, &wireError{status: http.StatusBadRequest, code: "bad_request",
			message: "missing required field \"workerId\""})
		return
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait < 0 {
		writeWireError(w, &wireError{status: http.StatusBadRequest, code: "bad_request",
			message: fmt.Sprintf("negative waitMs %d", req.WaitMs)})
		return
	}
	wait = min(wait, maxLeaseWait)

	var lease *jobq.Lease
	var err error
	if wait == 0 {
		var ok bool
		lease, ok = c.q.Lease()
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
	} else {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		lease, err = c.q.LeaseWait(ctx)
		switch {
		case errors.Is(err, jobq.ErrDraining):
			writeWireError(w, &wireError{status: http.StatusServiceUnavailable, code: "draining",
				message: "coordinator is draining; no further work"})
			return
		case err != nil: // wait elapsed or caller went away
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}

	spec, ok := lease.Payload.(*JobSpec)
	if !ok {
		// Only JobSpecs are ever queued; fail the job rather than strand it.
		_ = c.q.Fail(lease.ID, fmt.Errorf("dispatch: unexpected payload %T", lease.Payload), false)
		writeWireError(w, &wireError{status: http.StatusInternalServerError, code: "bad_payload",
			message: "leased job carried a non-dispatch payload"})
		return
	}
	c.met.leases.Add(1)
	var deadline time.Time
	if d, ok := lease.Ctx.Deadline(); ok {
		deadline = d
	}
	writeWireJSON(w, http.StatusOK, leaseResponse{
		LeaseID:  lease.ID,
		Attempt:  lease.Attempt,
		TTLMs:    lease.TTL.Milliseconds(),
		Deadline: deadline,
		Spec:     spec,
		Shard:    c.ShardLabel(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if werr := decodeWire(w, r, &req, c.opts.MaxWireBytes); werr != nil {
		writeWireError(w, werr)
		return
	}
	if req.LeaseID == "" {
		writeWireError(w, &wireError{status: http.StatusBadRequest, code: "bad_request",
			message: "missing required field \"leaseId\""})
		return
	}
	ttl, err := c.q.Heartbeat(req.LeaseID)
	switch {
	case errors.Is(err, jobq.ErrUnknownLease):
		staleLease(w, c)
		return
	case err != nil:
		// The job's own deadline passed: the lease is gone and the worker
		// should abandon the solve.
		writeWireError(w, &wireError{status: http.StatusConflict, code: "job_expired",
			message: err.Error()})
		return
	}
	c.met.heartbeats.Add(1)
	writeWireJSON(w, http.StatusOK, map[string]any{"ttlMs": ttl.Milliseconds()})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if werr := decodeWire(w, r, &req, c.opts.MaxWireBytes); werr != nil {
		writeWireError(w, werr)
		return
	}
	if req.LeaseID == "" || req.Outcome == nil || len(req.Outcome.ResultJSON) == 0 {
		writeWireError(w, &wireError{status: http.StatusBadRequest, code: "bad_request",
			message: "completion requires \"leaseId\" and a non-empty \"outcome.resultJson\""})
		return
	}
	// Durable-before-ack: the result bytes must be on stable storage
	// before the completion is applied, or a crash between the two could
	// journal a completed job whose result no longer exists. A persist
	// failure refuses the completion — the lease lapses and the job
	// re-runs — rather than acknowledging what cannot be kept.
	if c.opts.PersistResult != nil && req.Key != "" && !req.Outcome.Degraded {
		if err := c.opts.PersistResult(req.Key, req.Outcome.ResultJSON); err != nil {
			writeWireError(w, &wireError{status: http.StatusServiceUnavailable, code: "persist_failed",
				message: fmt.Sprintf("result could not be made durable: %v", err)})
			return
		}
	}
	if err := c.q.Complete(req.LeaseID, req.Outcome); err != nil {
		staleLease(w, c)
		return
	}
	c.met.completions.Add(1)
	writeWireJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if werr := decodeWire(w, r, &req, c.opts.MaxWireBytes); werr != nil {
		writeWireError(w, werr)
		return
	}
	if req.LeaseID == "" {
		writeWireError(w, &wireError{status: http.StatusBadRequest, code: "bad_request",
			message: "missing required field \"leaseId\""})
		return
	}
	var cause error
	if req.Error != nil {
		cause = req.Error
	} else {
		cause = &RemoteError{Code: "worker_failed", Message: "worker reported failure without detail"}
	}
	if err := c.q.Fail(req.LeaseID, cause, req.Retryable); err != nil {
		staleLease(w, c)
		return
	}
	c.met.failures.Add(1)
	if req.Retryable {
		c.met.requeues.Add(1)
	}
	writeWireJSON(w, http.StatusOK, map[string]any{"ok": true})
}
