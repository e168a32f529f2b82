package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"wavemin/internal/clocktree"
	"wavemin/internal/dispatch"
	"wavemin/internal/jobq"
	"wavemin/internal/obs"
	"wavemin/internal/yield"
)

// submitYield admits one yield-mode job. The driver runs on its own
// goroutine (under dispatchWG, so Drain waits for it) rather than a
// queue worker: it is a coordinator, not a unit of work — it solves the
// candidate ladder, then fans sample chunks out as sub-leases of this
// job and folds the stream. Admission is bounded twice: at most
// QueueCapacity drivers may exist (pending + running, same backpressure
// contract as the queue: past it submissions get 429), and at most
// YieldMaxConcurrent may drive the fleet at once (the rest wait in
// "queued", their deadlines ticking). Once Drain has begun, admission
// is refused like the queue's (503).
func (s *Server) submitYield(jctx context.Context, j *job, req *optimizeRequest) error {
	if n := s.yieldPending.Add(1); n > int64(s.opts.QueueCapacity) {
		s.yieldPending.Add(-1)
		return jobq.ErrFull
	}
	if err := s.admit(); err != nil {
		s.yieldPending.Add(-1)
		return err
	}
	s.count(&s.met.YieldJobs, "server_yield_jobs", 1)
	go s.runYield(jctx, j, req)
	return nil
}

// runYield drives one yield job end to end: candidate generation, the
// sampling race with its chunks fanned out on the lease queue, and
// landing the report in the job record and cache.
func (s *Server) runYield(ctx context.Context, j *job, req *optimizeRequest) {
	defer s.dispatchWG.Done()
	defer s.yieldPending.Add(-1)
	defer j.cancel()

	select {
	case s.yieldSem <- struct{}{}:
		defer func() { <-s.yieldSem }()
	case <-ctx.Done():
		s.finish(j, nil, "", false, ctx.Err())
		return
	}
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()

	if req.trace {
		tr := j.startTrace()
		s.recordForwardHop(tr, req)
		ctx = obs.Into(ctx, tr)
		defer tr.Flush()
	}

	p := *req.yield
	var mode *clocktree.Mode
	if len(req.modes) > 0 {
		mode = &req.modes[0]
	}

	// Candidate solves run inline on the driver (they are few and the
	// fleet path would gain nothing: each is a full optimization whose
	// result the driver needs before any sampling can start).
	s.count(&s.met.SolverRuns, "server_solver_runs", int64(p.Candidates))
	cands, rejected, err := yield.GenerateCandidates(ctx, req.tree, req.cfg, req.modes, p)
	if err != nil {
		s.finish(j, nil, "", false, err)
		return
	}
	// Sub-lease specs carry the job's deadline, so workers bound chunk
	// execution the same way the driver is bound.
	deadline, _ := ctx.Deadline()
	runner := &fleetRunner{s: s, pri: req.pri, deadline: deadline}
	rep, err := yield.Run(ctx, cands, p, rejected, mode, runner)
	if err != nil {
		s.finish(j, nil, "", false, err)
		return
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		s.finish(j, nil, "", false, err)
		return
	}
	// Yield reports are pure functions of (tree, config, modes, knobs) —
	// the chunk determinism contract — so they cache and replicate under
	// the extended key exactly like optimization results.
	if !req.noCache {
		s.cache.Put(req.key, blob)
		s.replicateResult(req.key, blob)
	}
	s.count(&s.met.YieldSamplesSaved, "server_yield_samples_saved", int64(rep.SamplesSaved))
	if rep.EarlyStopped {
		s.count(&s.met.YieldEarlyStops, "server_yield_early_stops", 1)
	}
	s.finish(j, blob, rep.AlgorithmUsed, false, nil)
}

// fleetRunner fans a round's chunks out on the lease queue as
// sub-leases — run by the local pool or a remote worker — and folds the
// outcomes back into the slot order the driver expects. Chunks refused
// by the queue (full, or draining) are evaluated
// inline — the chunk determinism contract makes the fallback
// byte-identical, so admission pressure can slow a yield run but never
// change its answer.
type fleetRunner struct {
	s        *Server
	pri      jobq.Priority
	deadline time.Time
}

func (f *fleetRunner) RunChunks(ctx context.Context, specs []*yield.ChunkSpec) ([]*yield.ChunkStats, error) {
	out := make([]*yield.ChunkStats, len(specs))
	type pending struct {
		i  int
		tk *jobq.Ticket
	}
	pends := make([]pending, 0, len(specs))
	for i, spec := range specs {
		js := &dispatch.JobSpec{Yield: spec, Deadline: f.deadline, NoCache: true}
		tk, err := f.s.q.SubmitSubLease(ctx, f.pri, js, nil)
		if err != nil {
			if errors.Is(err, jobq.ErrFull) || errors.Is(err, jobq.ErrDraining) {
				st, cerr := yield.ExecuteChunk(ctx, spec)
				if cerr != nil {
					return nil, cerr
				}
				out[i] = st
				f.s.count(&f.s.met.YieldChunksInline, "server_yield_chunks_inline", 1)
				continue
			}
			return nil, err
		}
		f.s.count(&f.s.met.YieldChunks, "server_yield_chunks", 1)
		pends = append(pends, pending{i, tk})
	}
	for _, p := range pends {
		<-p.tk.Done()
		result, err := p.tk.Outcome()
		if err != nil {
			var re *dispatch.RemoteError
			if errors.As(err, &re) && re.Code == "expired" {
				return nil, fmt.Errorf("yield: chunk expired: %w", context.DeadlineExceeded)
			}
			return nil, err
		}
		o, ok := result.(*dispatch.Outcome)
		if !ok {
			return nil, fmt.Errorf("yield: unexpected chunk outcome %T", result)
		}
		var st yield.ChunkStats
		if uerr := json.Unmarshal(o.ResultJSON, &st); uerr != nil {
			return nil, fmt.Errorf("yield: chunk stats: %w", uerr)
		}
		// The lease protocol is open: a worker could complete a chunk
		// with stats that answer a different spec (or none). Reject
		// before they contaminate the fold.
		if verr := st.Validate(specs[p.i]); verr != nil {
			return nil, verr
		}
		out[p.i] = &st
	}
	return out, nil
}
