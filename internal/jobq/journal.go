// Journal integration: every lifecycle transition of a submitted job is
// written to a write-ahead journal (internal/wal) before the transition
// is acknowledged to the outside, so a crashed coordinator can rebuild
// its backlog on restart and requeue the jobs it was holding.
//
// The protocol is deliberately asymmetric about durability:
//
//   - accept (SubmitLeasable) is ack-gated: the record must be fsynced
//     before the submitter gets its Ticket. An accepted job is therefore
//     never lost, whatever happens next.
//   - complete/fail/expire/exhaust are ack-gated where there is a caller
//     to gate (Complete, Fail): the worker's acknowledgement arrives only
//     after the terminal record is durable. Internally-driven terminals
//     (context cull, retry exhaustion) are journaled asynchronously.
//   - grant and requeue are advisory: they are buffered into the journal
//     in order but nobody waits on them. Losing a suffix of them is safe
//     because replay treats a granted-but-unresolved job as leased at
//     crash time and requeues it without burning the attempt.
//
// Records are JSON payloads inside the WAL's CRC-framed records. The
// journal covers jobs admitted through SubmitLeasable; sub-leases
// (SubmitSubLease) are never journaled, because their parent job
// re-derives them on recovery.
package jobq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"wavemin/internal/wal"
)

// Journal record ops. Single letters keep the journal compact; the
// replayer rejects anything it does not recognize.
const (
	opAccept   = "a" // job entered the queue (payload, lane, deadline)
	opGrant    = "g" // a lease was granted (attempt burned)
	opRequeue  = "r" // lease lapsed or failed retryably; job back at lane front
	opComplete = "c" // terminal: completed (result durable elsewhere)
	opFail     = "f" // terminal: non-retryable failure
	opExpire   = "x" // terminal: job context ended
	opExhaust  = "e" // terminal: retry budget spent
)

// journalRec is the JSON payload of one Data record.
type journalRec struct {
	Op       string          `json:"op"`
	ID       uint64          `json:"id"`
	Pri      int             `json:"pri,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`  // opAccept only
	Deadline int64           `json:"deadline,omitempty"` // unix nanos; 0 = none
	Attempt  int             `json:"attempt,omitempty"`
}

// snapshot is the JSON payload of a Checkpoint record: the full set of
// non-terminal journaled jobs at checkpoint time, queued jobs in queue
// order, then jobs leased at that moment.
type snapshot struct {
	LastID uint64    `json:"last_id"` // highest job ID ever assigned
	Jobs   []snapJob `json:"jobs"`
}

type snapJob struct {
	ID       uint64          `json:"id"`
	Pri      int             `json:"pri"`
	Payload  json.RawMessage `json:"payload"`
	Deadline int64           `json:"deadline,omitempty"`
	Attempts int             `json:"attempts,omitempty"` // lease grants consumed
	Leased   bool            `json:"leased,omitempty"`   // held by a consumer at checkpoint
}

// PayloadCodec converts between in-memory job payloads and the bytes the
// journal stores. Both directions must be total for every payload the
// queue will ever carry — an Encode failure rejects the submission.
type PayloadCodec struct {
	Encode func(payload any) ([]byte, error)
	Decode func(data []byte) (any, error)
}

// AttachJournal starts journaling every job transition to w.
// It must be called before the queue starts accepting work: jobs
// submitted earlier have no accept record, and their later transitions
// are ignored at replay. The queue does not close w; the owner does,
// after Drain.
func (q *Queue) AttachJournal(w *wal.Writer, codec PayloadCodec) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jrnl = w
	q.codec = codec
}

// JournalErrs reports how many journal appends or waits failed since the
// queue started. Non-zero means the durability guarantee is degraded and
// the operator should be paged; in-memory serving continues regardless.
func (q *Queue) JournalErrs() int64 { return q.journalErrs.Load() }

// appendJournalLocked buffers one record for j into the journal, in the
// same critical section as the in-memory transition so journal order
// equals state order. Returns a nil Commit when no journal is attached
// or j is not journaled (sub-lease, pre-attach job). Caller holds q.mu.
func (q *Queue) appendJournalLocked(op string, j *job, payload json.RawMessage, deadline int64) (*wal.Commit, error) {
	if q.jrnl == nil || j.id == 0 {
		return nil, nil
	}
	rec := journalRec{Op: op, ID: j.id, Attempt: j.attempts}
	if op == opAccept {
		rec.Pri = int(j.pri)
		rec.Payload = payload
		rec.Deadline = deadline
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return q.jrnl.Append(b)
}

// journalAsyncLocked buffers a record nobody waits on; failures are
// counted, not surfaced. Caller holds q.mu.
func (q *Queue) journalAsyncLocked(op string, j *job) {
	if _, err := q.appendJournalLocked(op, j, nil, 0); err != nil {
		q.journalErrs.Add(1)
	}
}

// waitJournal blocks until c is durable, folding failures into the
// journal-error counter. Called WITHOUT q.mu held.
func (q *Queue) waitJournal(c *wal.Commit) {
	if c == nil {
		return
	}
	if err := c.Wait(); err != nil {
		q.journalErrs.Add(1)
	}
}

// CheckpointJournal writes a snapshot of every non-terminal journaled job
// and truncates the journal's history. The queue's lock serializes the
// snapshot against every append, which is exactly the external ordering
// wal.Checkpoint requires.
func (q *Queue) CheckpointJournal() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.jrnl == nil {
		return errors.New("jobq: no journal attached")
	}
	snap := snapshot{LastID: q.jobSeq}
	add := func(j *job, leased bool) error {
		enc, err := q.codec.Encode(j.payload)
		if err != nil {
			return fmt.Errorf("jobq: checkpoint: encode job %d: %w", j.id, err)
		}
		var dl int64
		if t, ok := j.ctx.Deadline(); ok {
			dl = t.UnixNano()
		}
		snap.Jobs = append(snap.Jobs, snapJob{
			ID: j.id, Pri: int(j.pri), Payload: enc,
			Deadline: dl, Attempts: j.attempts, Leased: leased,
		})
		return nil
	}
	for lane := range q.lanes {
		for _, j := range q.lanes[lane] {
			if j.id != 0 {
				if err := add(j, false); err != nil {
					return err
				}
			}
		}
	}
	// Jobs leased out or running on the pool are snapshotted as leased:
	// replay puts them back at the front of their lane with the in-flight
	// attempt un-burned.
	for _, j := range q.leases {
		if j.id != 0 {
			if err := add(j, true); err != nil {
				return err
			}
		}
	}
	for j := range q.running {
		if j.id != 0 {
			if err := add(j, true); err != nil {
				return err
			}
		}
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return q.jrnl.Checkpoint(b)
}

// RecoveredJob is one non-terminal job reconstructed from the journal.
type RecoveredJob struct {
	ID       uint64
	Pri      Priority
	Payload  any
	Attempts int       // grants that count against the retry budget
	Deadline time.Time // zero = no deadline
	// WasLeased reports the job was held by a consumer at crash time.
	// Its in-flight attempt is NOT counted in Attempts: the crash was
	// the coordinator's fault, not the job's.
	WasLeased bool
}

// Replayer folds journal records back into the set of jobs that were
// non-terminal at crash time. Feed its Apply method to wal.Open (or
// wal.ReadAll), then collect the backlog with Jobs.
type Replayer struct {
	decode  func([]byte) (any, error)
	jobs    map[uint64]*replayJob
	seq     int64  // increasing order keys for accepts
	front   int64  // decreasing order keys for requeues/grants
	lastID  uint64 // highest ID seen (records or snapshot)
	ignored int    // records for unknown job IDs
}

type replayJob struct {
	id       uint64
	pri      Priority
	payload  json.RawMessage
	deadline int64
	grants   int
	leased   bool
	order    int64
}

// NewReplayer builds a Replayer that decodes payloads with decode.
func NewReplayer(decode func([]byte) (any, error)) *Replayer {
	return &Replayer{decode: decode, jobs: make(map[uint64]*replayJob)}
}

// Ignored reports how many records referenced job IDs the replayer had
// never seen an accept for — expected only after a best-effort salvage
// that lost a prefix, or for jobs submitted before AttachJournal.
func (r *Replayer) Ignored() int { return r.ignored }

// Apply consumes one journal record. It is shaped to be passed directly
// as the replay callback of wal.Open.
func (r *Replayer) Apply(kind wal.RecordKind, payload []byte) error {
	switch kind {
	case wal.Checkpoint:
		var snap snapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("jobq: checkpoint record: %w", err)
		}
		r.jobs = make(map[uint64]*replayJob, len(snap.Jobs))
		if snap.LastID > r.lastID {
			r.lastID = snap.LastID
		}
		for _, sj := range snap.Jobs {
			if sj.Pri < int(High) || sj.Pri > int(Low) {
				return fmt.Errorf("jobq: checkpoint job %d: invalid priority %d", sj.ID, sj.Pri)
			}
			j := &replayJob{
				id: sj.ID, pri: Priority(sj.Pri), payload: sj.Payload,
				deadline: sj.Deadline, grants: sj.Attempts, leased: sj.Leased,
			}
			if sj.Leased {
				r.front--
				j.order = r.front
			} else {
				r.seq++
				j.order = r.seq
			}
			r.jobs[sj.ID] = j
			if sj.ID > r.lastID {
				r.lastID = sj.ID
			}
		}
		return nil
	case wal.Data:
		var rec journalRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("jobq: journal record: %w", err)
		}
		switch rec.Op {
		case opAccept:
			if rec.Pri < int(High) || rec.Pri > int(Low) {
				return fmt.Errorf("jobq: accept record %d: invalid priority %d", rec.ID, rec.Pri)
			}
			r.seq++
			r.jobs[rec.ID] = &replayJob{
				id: rec.ID, pri: Priority(rec.Pri), payload: rec.Payload,
				deadline: rec.Deadline, order: r.seq,
			}
			if rec.ID > r.lastID {
				r.lastID = rec.ID
			}
		case opGrant:
			j, ok := r.jobs[rec.ID]
			if !ok {
				r.ignored++
				return nil
			}
			j.grants++
			j.leased = true
			r.front--
			j.order = r.front
		case opRequeue:
			j, ok := r.jobs[rec.ID]
			if !ok {
				r.ignored++
				return nil
			}
			j.leased = false
			r.front--
			j.order = r.front
		case opComplete, opFail, opExpire, opExhaust:
			if _, ok := r.jobs[rec.ID]; !ok {
				r.ignored++
				return nil
			}
			delete(r.jobs, rec.ID)
		default:
			return fmt.Errorf("jobq: journal record: unknown op %q", rec.Op)
		}
		return nil
	default:
		return fmt.Errorf("jobq: unknown journal record kind %d", kind)
	}
}

// LastID returns the highest job ID the journal ever assigned; Restore
// uses it to keep IDs monotonic across restarts.
func (r *Replayer) LastID() uint64 { return r.lastID }

// Jobs returns the reconstructed backlog in queue order: requeued and
// leased-at-crash jobs first (they had, or regain, their place at the
// front of their lane), then accepted jobs in submission order. Payloads
// are decoded; a decode failure aborts, because serving a job with a
// garbled payload is worse than refusing to start.
func (r *Replayer) Jobs() ([]RecoveredJob, error) {
	ordered := make([]*replayJob, 0, len(r.jobs))
	for _, j := range r.jobs {
		ordered = append(ordered, j)
	}
	for i := 1; i < len(ordered); i++ {
		for k := i; k > 0 && ordered[k].order < ordered[k-1].order; k-- {
			ordered[k], ordered[k-1] = ordered[k-1], ordered[k]
		}
	}
	out := make([]RecoveredJob, 0, len(ordered))
	for _, j := range ordered {
		payload, err := r.decode(j.payload)
		if err != nil {
			return nil, fmt.Errorf("jobq: replay job %d: decode payload: %w", j.id, err)
		}
		rj := RecoveredJob{
			ID: j.id, Pri: j.pri, Payload: payload,
			Attempts: j.grants, WasLeased: j.leased,
		}
		if j.leased && rj.Attempts > 0 {
			rj.Attempts-- // the in-flight grant died with the coordinator
		}
		if j.deadline != 0 {
			rj.Deadline = time.Unix(0, j.deadline)
		}
		out = append(out, rj)
	}
	return out, nil
}

// Restore re-enqueues recovered jobs, preserving IDs, attempts, lane
// order, and deadlines (a job whose deadline already passed is enqueued
// and immediately culled as expired, so it still reaches a terminal
// state through the normal path). onEvent, if non-nil, is asked for a
// per-job event callback before each job is enqueued. The returned
// tickets parallel jobs.
//
// Restore must run after AttachJournal and before the queue starts
// granting leases. It deliberately ignores the capacity bound: these
// jobs were already accepted once, and that acknowledgement is a debt
// the queue must honor even if the configured capacity has shrunk.
func (q *Queue) Restore(jobs []RecoveredJob, lastID uint64, onEvent func(RecoveredJob) func(LeaseEvent)) []*Ticket {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Ticket, 0, len(jobs))
	for _, rj := range jobs {
		pri := rj.Pri
		if pri < High || pri > Low {
			pri = Normal
		}
		ctx := context.Background()
		var cancel context.CancelFunc
		if !rj.Deadline.IsZero() {
			ctx, cancel = context.WithDeadline(ctx, rj.Deadline)
		}
		t := &Ticket{done: make(chan struct{})}
		var ev func(LeaseEvent)
		if onEvent != nil {
			ev = onEvent(rj)
		}
		j := &job{
			ctx: ctx, cancel: cancel, id: rj.ID, pri: pri,
			payload: rj.Payload, ticket: t, onEvent: ev, attempts: rj.Attempts,
		}
		q.lanes[pri] = append(q.lanes[pri], j)
		q.queued++
		q.outstanding++
		if rj.ID > q.jobSeq {
			q.jobSeq = rj.ID
		}
		out = append(out, t)
	}
	if lastID > q.jobSeq {
		q.jobSeq = lastID
	}
	q.cond.Broadcast()
	return out
}

// removeQueuedLocked withdraws j from its lane if it is still queued,
// returning whether it was found. Caller holds q.mu and accounts for
// q.queued / q.outstanding itself.
func (q *Queue) removeQueuedLocked(j *job) bool {
	lane := q.lanes[j.pri]
	for i, cand := range lane {
		if cand == j {
			copy(lane[i:], lane[i+1:])
			lane[len(lane)-1] = nil
			q.lanes[j.pri] = lane[:len(lane)-1]
			return true
		}
	}
	return false
}
