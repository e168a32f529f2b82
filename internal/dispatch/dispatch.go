// Package dispatch is the wavemind execution layer: every job the
// service runs is a JobSpec on a lease queue (internal/jobq), executed
// by ExecuteSpec — on the queue's own worker pool (the local executor)
// or in a separate `wavemind -role=worker` process that pulls it over a
// small HTTP protocol — lease, heartbeat, complete, fail — so one
// service instance can fan WaveMin solves out across a fleet.
//
// The protocol is pull-based and lease-guarded. A worker leases the next
// job, heartbeats while it solves, and completes (or fails) the lease.
// The coordinator requeues any job whose lease heartbeats lapse — a
// crashed or partitioned worker just looks like a lapsed lease — and
// counts attempts against a bounded retry budget before failing the job
// with a structured *jobq.RetryExhaustedError. Stale lease IDs (expired,
// requeued, already resolved) are rejected on every mutation, so a
// delayed or replayed completion can never double-apply a result.
//
// The execution contract is the same wherever a job runs: per-job
// deadlines keep ticking while a job is queued or leased, degraded
// results are never cached, and the canonical result bytes produced by
// ExecuteSpec are bitwise identical wherever and however often the job
// runs — every executor re-derives the design from the same canonical
// tree bytes, and wall-clock fields (Runtime, Stats) are zeroed before
// marshaling. A requeued job therefore returns exactly the bytes an
// uninterrupted run would have produced.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"wavemin"
	"wavemin/internal/jobq"
	"wavemin/internal/obs"
	"wavemin/internal/yield"
)

// JobSpec is the self-contained, serializable description of one
// optimization job — everything a worker needs to reproduce the solve
// bit-for-bit: the canonical tree bytes, the effective config, and the
// mode list, exactly as the coordinator validated them.
type JobSpec struct {
	// Tree is the clock tree in the wavemin-clocktree-v1 JSON format.
	Tree json.RawMessage `json:"tree"`
	// Config is the effective (validated, server-capped) configuration.
	Config wavemin.Config `json:"config"`
	// Modes is the power-mode list; empty means single-mode nominal.
	Modes []wavemin.Mode `json:"modes,omitempty"`
	// Trace asks the executor to capture an obs trace of the solve.
	Trace bool `json:"trace,omitempty"`
	// Key is the canonical cache key of (tree, config, modes), carried so
	// both sides can verify they agree on the problem identity.
	Key string `json:"key"`
	// Deadline is the job's absolute deadline. It keeps ticking while the
	// job is queued or leased; a worker must bound its solve by it. Zero
	// means no deadline.
	Deadline time.Time `json:"deadline"`
	// JobID is the submitting server's public job identifier. It rides in
	// the spec so a coordinator that crashes and replays its journal can
	// rebuild its job registry under the same IDs clients are polling.
	JobID string `json:"jobId,omitempty"`
	// NoCache mirrors the request's cache opt-out, so a recovered job
	// keeps the caching policy it was submitted with.
	NoCache bool `json:"noCache,omitempty"`

	// Yield, when non-nil, makes this spec a Monte Carlo sample chunk of
	// a parent yield job instead of an optimization: the executor runs
	// yield.ExecuteChunk over the chunk's own tree and returns the
	// marshaled yield.ChunkStats as ResultJSON. Chunk specs ride the same
	// lease protocol as full jobs (heartbeats, requeues, bounded retries)
	// but are submitted as sub-leases — never journaled, never cached —
	// because they are meaningless without their parent job (which is
	// not journaled either) and their bytes are already a pure function
	// of the chunk identity. The spec's Tree / Config / Modes fields are
	// unused; the chunk carries its own tree.
	Yield *yield.ChunkSpec `json:"yield,omitempty"`
}

// Outcome is the terminal result of a successfully completed job: the
// canonical result bytes plus the decoration the job registry shows.
type Outcome struct {
	// ResultJSON is the canonical marshaled wavemin.Result: Stats nil and
	// Runtime zero, so the bytes are a pure function of the JobSpec.
	ResultJSON json.RawMessage `json:"resultJson"`
	// AlgorithmUsed / Degraded mirror the Result fields of the same name.
	AlgorithmUsed string `json:"algorithmUsed"`
	Degraded      bool   `json:"degraded"`
	// TraceEvents is the executor's serialized obs trace when the spec
	// asked for one; the coordinator stitches it under its job span.
	TraceEvents []obs.Event `json:"traceEvents,omitempty"`

	// Zones is every zone solution the run replayed or produced (zone
	// content key → encoded zonecache.Solution), present only when the
	// spec's Config.ECO asked for zone recording and the result was not
	// degraded. Workers have no shared zone store, so the solutions ride
	// home with the outcome; the coordinator persists them and chains
	// later deltas off them. ZonesReused / ZonesResolved mirror the
	// Result accounting for the job registry's decoration.
	Zones         map[string][]byte `json:"zones,omitempty"`
	ZonesReused   int               `json:"zonesReused,omitempty"`
	ZonesResolved int               `json:"zonesResolved,omitempty"`
}

// RemoteError is a structured, wire-serializable job failure reported by
// a worker (or synthesized by the coordinator).
type RemoteError struct {
	Code    string `json:"code"`    // "expired", "solver_failed", "bad_spec"
	Message string `json:"message"` // human-readable cause
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("dispatch: %s: %s", e.Code, e.Message)
}

// ExecuteSpec runs one JobSpec to completion: it reconstructs the design
// from the canonical tree bytes, applies the modes, bounds the solve by
// ctx and the spec deadline, and marshals the canonical result bytes.
//
// The returned Outcome is deterministic: Runtime and Stats — the only
// wall-clock-dependent Result fields — are zeroed before marshaling, so
// every execution of the same spec, on any machine at any attempt,
// produces identical ResultJSON. solverWorkers, when positive, caps the
// solver's parallelism without affecting the bytes (the solvers are
// bitwise worker-count independent).
func ExecuteSpec(ctx context.Context, spec *JobSpec, solverWorkers int) (*Outcome, error) {
	if spec.Yield != nil {
		return executeYieldChunk(ctx, spec)
	}
	design, err := wavemin.LoadTree(bytes.NewReader(spec.Tree))
	if err != nil {
		return nil, &RemoteError{Code: "bad_spec", Message: fmt.Sprintf("tree: %v", err)}
	}
	if len(spec.Modes) > 0 {
		if err := design.SetModes(spec.Modes); err != nil {
			return nil, &RemoteError{Code: "bad_spec", Message: fmt.Sprintf("modes: %v", err)}
		}
	}
	cfg := spec.Config
	if solverWorkers > 0 && (cfg.Workers == 0 || cfg.Workers > solverWorkers) {
		cfg.Workers = solverWorkers
	}

	if !spec.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, spec.Deadline)
		defer cancel()
	}

	var tr *obs.Trace
	var mem *obs.Memory
	if spec.Trace {
		mem = &obs.Memory{}
		tr = obs.New(obs.Options{})
		tr.AttachSink(mem)
		ctx = obs.Into(ctx, tr)
	}

	res, err := design.Optimize(ctx, cfg)
	if ferr := tr.Flush(); ferr != nil && err == nil {
		err = fmt.Errorf("trace flush: %w", ferr)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, &RemoteError{Code: "expired", Message: err.Error()}
		}
		return nil, &RemoteError{Code: "solver_failed", Message: err.Error()}
	}

	// Canonical bytes: strip every wall-clock-dependent field so the
	// marshaled result is a pure function of the spec — requeues,
	// re-execution and the local/remote choice all reproduce it
	// byte-identically.
	res.Stats = nil
	res.Runtime = 0
	blob, err := json.Marshal(res)
	if err != nil {
		return nil, &RemoteError{Code: "solver_failed", Message: fmt.Sprintf("marshal result: %v", err)}
	}
	out := &Outcome{
		ResultJSON:    blob,
		AlgorithmUsed: res.AlgorithmUsed,
		Degraded:      res.Degraded,
	}
	// Zone solutions travel with the outcome only for clean results: a
	// degraded run's zones must never seed a future delta (the base
	// contract the server's 409 enforces). The accounting fields are
	// deterministic per spec — the seeds are part of the spec, so reuse
	// counts replay identically on every attempt.
	if spec.Config.ECO != nil && !res.Degraded {
		out.Zones = res.Zones
		out.ZonesReused = res.ZonesReused
		out.ZonesResolved = res.ZonesResolved
	}
	if mem != nil {
		out.TraceEvents = mem.Events()
	}
	return out, nil
}

// AlgorithmYieldChunk decorates chunk outcomes so the coordinator (and a
// curious human reading a journal) can tell them from optimization runs.
const AlgorithmYieldChunk = "yield-chunk"

// executeYieldChunk runs a yield sample chunk. The outcome's ResultJSON
// is the marshaled yield.ChunkStats — deterministic by the chunk seeding
// contract, so requeues and retries reproduce identical bytes just like
// optimization jobs.
func executeYieldChunk(ctx context.Context, spec *JobSpec) (*Outcome, error) {
	if !spec.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, spec.Deadline)
		defer cancel()
	}
	st, err := yield.ExecuteChunk(ctx, spec.Yield)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, &RemoteError{Code: "expired", Message: err.Error()}
		}
		return nil, &RemoteError{Code: "bad_spec", Message: err.Error()}
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return nil, &RemoteError{Code: "solver_failed", Message: fmt.Sprintf("marshal chunk stats: %v", err)}
	}
	return &Outcome{ResultJSON: blob, AlgorithmUsed: AlgorithmYieldChunk}, nil
}

// --- trace stitching ------------------------------------------------------

// TraceObserver builds the dispatch span tree of one job from its lease
// events and returns a jobq event callback. The tree is deterministic
// content: a "dispatch" root span with one "attempt" child per lease
// grant, each annotated with the attempt number, execution mode, and
// outcome — and, on completion, the worker's own trace adopted under the
// final attempt span. Worker identities and lease IDs never enter the
// span content, so StripTiming(events) is byte-identical however many
// workers served the job.
//
// The callback runs under the jobq lock (see jobq.LeaseEvent): it
// touches only the trace, never the queue.
func TraceObserver(tr *obs.Trace) func(jobq.LeaseEvent) {
	if tr == nil {
		return nil
	}
	root := tr.Start("dispatch")
	var cur *obs.Span
	slot := 0
	return func(ev jobq.LeaseEvent) {
		switch ev.Kind {
		case jobq.LeaseGranted:
			cur = root.ChildAt(slot, "attempt")
			slot++
			cur.SetAttr("attempt", fmt.Sprintf("%d", ev.Attempt))
			if ev.Local {
				cur.SetAttr("mode", "local")
			} else {
				cur.SetAttr("mode", "remote")
			}
		case jobq.LeaseRequeued:
			cur.SetAttr("outcome", "requeued")
			cur.End()
			cur = nil
		case jobq.LeaseCompleted:
			if out, ok := ev.Result.(*Outcome); ok && cur != nil && len(out.TraceEvents) > 0 {
				cur.AdoptAt(0, out.TraceEvents)
			}
			cur.SetAttr("outcome", "ok")
			cur.End()
			root.SetAttr("outcome", "ok")
			root.End()
		case jobq.LeaseFailed:
			cur.SetAttr("outcome", "failed")
			cur.End()
			root.SetAttr("outcome", "failed")
			root.End()
		case jobq.LeaseExpired:
			if cur != nil {
				cur.SetAttr("outcome", "expired")
				cur.End()
			}
			root.SetAttr("outcome", "expired")
			root.End()
		case jobq.LeaseExhausted:
			// The last attempt lapsed or failed retryably with no retry
			// left: no LeaseRequeued event ends its span.
			if cur != nil {
				cur.SetAttr("outcome", "exhausted")
				cur.End()
			}
			root.SetAttr("outcome", "exhausted")
			root.SetAttr("attempts", fmt.Sprintf("%d", ev.Attempt))
			root.End()
		}
	}
}
