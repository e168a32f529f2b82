package jobq

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"wavemin/internal/faultinject"
	"wavemin/internal/wal"
)

// stringCodec journals plain string payloads as JSON.
var stringCodec = PayloadCodec{
	Encode: func(p any) ([]byte, error) { return json.Marshal(p.(string)) },
	Decode: func(b []byte) (any, error) {
		var s string
		err := json.Unmarshal(b, &s)
		return s, err
	},
}

func openJournal(t *testing.T, dir string) *wal.Writer {
	t.Helper()
	w, _, err := wal.Open(dir, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// replayDir reads the journal at dir through a Replayer and returns the
// reconstructed backlog.
func replayDir(t *testing.T, dir string) ([]RecoveredJob, uint64) {
	t.Helper()
	r := NewReplayer(stringCodec.Decode)
	if _, err := wal.ReadAll(dir, false, r.Apply); err != nil {
		t.Fatalf("replay: %v", err)
	}
	jobs, err := r.Jobs()
	if err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	return jobs, r.LastID()
}

func TestJournalReplayRebuildsBacklog(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(16, 1)
	q.AttachJournal(w, stringCodec)

	// done: completed through a lease — must NOT reappear.
	tDone, err := q.SubmitLeasable(context.Background(), Normal, "done", nil)
	if err != nil {
		t.Fatal(err)
	}
	// failed: terminal non-retryable — must NOT reappear.
	if _, err := q.SubmitLeasable(context.Background(), Normal, "failed", nil); err != nil {
		t.Fatal(err)
	}
	// queued / leased: survive the crash.
	if _, err := q.SubmitLeasable(context.Background(), High, "leased", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitLeasable(context.Background(), Low, "queued", nil); err != nil {
		t.Fatal(err)
	}

	l1, ok := q.Lease() // "done" (Normal beats nothing — High? no: High first)
	if !ok {
		t.Fatal("no lease")
	}
	// Lanes grant High first, so l1 is "leased"; take another for "done".
	if l1.Payload.(string) != "leased" {
		t.Fatalf("first lease got %v, want the High job", l1.Payload)
	}
	l2, ok := q.Lease()
	if !ok || l2.Payload.(string) != "done" {
		t.Fatalf("second lease got %+v", l2)
	}
	if err := q.Complete(l2.ID, "result"); err != nil {
		t.Fatal(err)
	}
	<-tDone.Done()
	l3, ok := q.Lease()
	if !ok || l3.Payload.(string) != "failed" {
		t.Fatalf("third lease got %+v", l3)
	}
	if err := q.Fail(l3.ID, errors.New("bad input"), false); err != nil {
		t.Fatal(err)
	}

	// Crash: flush what the committer has, then abandon the writer
	// without a clean close. "leased" is still held.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	jobs, lastID := replayDir(t, dir)
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2: %+v", len(jobs), jobs)
	}
	// Leased-at-crash comes back first (front of the line), attempt
	// unburned; the untouched queued job follows.
	if jobs[0].Payload.(string) != "leased" || !jobs[0].WasLeased || jobs[0].Attempts != 0 {
		t.Fatalf("leased-at-crash job wrong: %+v", jobs[0])
	}
	if jobs[1].Payload.(string) != "queued" || jobs[1].WasLeased || jobs[1].Attempts != 0 {
		t.Fatalf("queued job wrong: %+v", jobs[1])
	}
	if jobs[0].Pri != High || jobs[1].Pri != Low {
		t.Fatalf("priorities lost: %+v", jobs)
	}
	if lastID != 4 {
		t.Fatalf("lastID = %d, want 4", lastID)
	}

	// Second incarnation: restore and finish the work.
	w2 := openJournal(t, dir)
	defer w2.Close()
	q2 := New(16, 1)
	q2.AttachJournal(w2, stringCodec)
	tickets := q2.Restore(jobs, lastID, nil)
	if len(tickets) != 2 {
		t.Fatalf("restore returned %d tickets", len(tickets))
	}
	for i := 0; i < 2; i++ {
		l, ok := q2.Lease()
		if !ok {
			t.Fatalf("lease %d unavailable after restore", i)
		}
		if err := q2.Complete(l.ID, "r:"+l.Payload.(string)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range tickets {
		<-tk.Done()
		if _, err := tk.Outcome(); err != nil {
			t.Fatalf("restored job failed: %v", err)
		}
	}
	// New submissions continue the ID sequence (no reuse).
	if _, err := q2.SubmitLeasable(context.Background(), Normal, "new", nil); err != nil {
		t.Fatal(err)
	}
	q2.mu.Lock()
	seq := q2.jobSeq
	q2.mu.Unlock()
	if seq != 5 {
		t.Fatalf("jobSeq = %d, want 5", seq)
	}
}

func TestJournalCheckpointCompactsAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(16, 1)
	q.AttachJournal(w, stringCodec)

	for _, p := range []string{"a", "b", "c"} {
		if _, err := q.SubmitLeasable(context.Background(), Normal, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	l, ok := q.Lease() // "a" held across the checkpoint
	if !ok {
		t.Fatal("no lease")
	}
	if err := q.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint activity lands after the snapshot.
	if _, err := q.SubmitLeasable(context.Background(), High, "d", nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(l.ID, "ok"); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	jobs, _ := replayDir(t, dir)
	got := map[string]RecoveredJob{}
	for _, j := range jobs {
		got[j.Payload.(string)] = j
	}
	if len(jobs) != 3 {
		t.Fatalf("recovered %v, want b, c, d", got)
	}
	for _, p := range []string{"b", "c", "d"} {
		if _, ok := got[p]; !ok {
			t.Fatalf("job %q lost (have %v)", p, got)
		}
	}
	if _, ok := got["a"]; ok {
		t.Fatal("completed job resurrected by checkpoint replay")
	}
}

// TestJournalCheckpointKeepsPoolRunningJobs pins the checkpoint against
// the two job states that sit in neither a lane nor the journal's
// history: a job running on the worker pool must survive compaction as
// leased-at-crash, and a leased sub-lease must never enter the snapshot.
func TestJournalCheckpointKeepsPoolRunningJobs(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(16, 1)
	q.AttachJournal(w, stringCodec)
	started, release := make(chan struct{}), make(chan struct{})
	q.SetLeaseExecutor(func(ctx context.Context, payload any) (any, error) {
		close(started)
		<-release
		return payload, nil
	})
	defer q.Drain(context.Background())
	defer close(release)

	if _, err := q.SubmitLeasable(context.Background(), Normal, "running", nil); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := q.SubmitSubLease(context.Background(), Normal, "chunk", nil); err != nil {
		t.Fatal(err)
	}
	l, ok := q.Lease()
	if !ok {
		t.Fatal("sub-lease not leasable")
	}
	if err := q.CheckpointJournal(); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(l.ID, "ok"); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	jobs, _ := replayDir(t, dir)
	if len(jobs) != 1 || jobs[0].Payload != "running" {
		t.Fatalf("recovered %+v, want only the pool-running job", jobs)
	}
	if !jobs[0].WasLeased || jobs[0].Attempts != 0 {
		t.Fatalf("pool-running job recovered as %+v, want leased with the attempt un-burned", jobs[0])
	}
}

func TestJournalSubmitRejectedWhenNotDurable(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	w, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	q := New(16, 1)
	q.AttachJournal(w, stringCodec)

	faultinject.SetErr(faultinject.SiteWALSync, func() error {
		return errors.New("injected fsync failure")
	})
	if _, err := q.SubmitLeasable(context.Background(), Normal, "doomed", nil); err == nil {
		t.Fatal("submit acknowledged without a durable accept record")
	}
	if q.Depth() != 0 {
		t.Fatalf("non-durable job left in backlog (depth %d)", q.Depth())
	}
	if q.JournalErrs() == 0 {
		t.Fatal("journal error not counted")
	}
}

func TestJournalDeadlineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(16, 1)
	q.AttachJournal(w, stringCodec)

	deadline := time.Now().Add(40 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if _, err := q.SubmitLeasable(ctx, Normal, "timed", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	jobs, lastID := replayDir(t, dir)
	if len(jobs) != 1 || jobs[0].Deadline.IsZero() {
		t.Fatalf("deadline lost: %+v", jobs)
	}
	if got := jobs[0].Deadline.UnixNano(); got != deadline.UnixNano() {
		t.Fatalf("deadline drifted: %d != %d", got, deadline.UnixNano())
	}

	// Restore after the deadline passed: the job must still reach a
	// terminal state — expired through the normal cull, not lost.
	time.Sleep(time.Until(deadline) + 20*time.Millisecond)
	w2 := openJournal(t, dir)
	defer w2.Close()
	q2 := New(16, 1)
	q2.AttachJournal(w2, stringCodec)
	tickets := q2.Restore(jobs, lastID, nil)
	q2.ExpireLeases()
	select {
	case <-tickets[0].Done():
	case <-time.After(2 * time.Second):
		t.Fatal("expired restored job never resolved")
	}
	if _, err := tickets[0].Outcome(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("outcome = %v, want deadline exceeded", err)
	}
}

func TestJournalRestoredJobsRunViaLeaseExecutor(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(16, 1)
	q.AttachJournal(w, stringCodec)
	for _, p := range []string{"x", "y"} {
		if _, err := q.SubmitLeasable(context.Background(), Normal, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	jobs, lastID := replayDir(t, dir)
	w2 := openJournal(t, dir)
	defer w2.Close()
	q2 := New(16, 2)
	q2.AttachJournal(w2, stringCodec)
	tickets := q2.Restore(jobs, lastID, nil)
	q2.SetLeaseExecutor(func(ctx context.Context, payload any) (any, error) {
		return "ran:" + payload.(string), nil
	})
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		case <-time.After(2 * time.Second):
			t.Fatalf("restored job %d never ran", i)
		}
		res, err := tk.Outcome()
		if err != nil {
			t.Fatal(err)
		}
		if res.(string) != "ran:"+jobs[i].Payload.(string) {
			t.Fatalf("job %d result %v", i, res)
		}
	}
}

func TestReplayerRejectsGarbage(t *testing.T) {
	r := NewReplayer(stringCodec.Decode)
	if err := r.Apply(wal.Data, []byte("{not json")); err == nil {
		t.Fatal("malformed record accepted")
	}
	if err := r.Apply(wal.Data, []byte(`{"op":"z","id":1}`)); err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := r.Apply(wal.Data, []byte(`{"op":"a","id":1,"pri":9}`)); err == nil {
		t.Fatal("out-of-range priority accepted")
	}
	// Transitions for unknown IDs are counted, not fatal: a best-effort
	// salvage may have lost the accept.
	if err := r.Apply(wal.Data, []byte(`{"op":"g","id":77}`)); err != nil {
		t.Fatal(err)
	}
	if r.Ignored() != 1 {
		t.Fatalf("ignored = %d", r.Ignored())
	}
}

func TestRetryAfterHonorsConfiguredHintBeforeSamples(t *testing.T) {
	q := New(1, 1)
	if got := q.RetryAfter(); got != time.Second {
		t.Fatalf("default cold hint = %v, want 1s", got)
	}
	q.SetRetryHint(45 * time.Second)
	if got := q.RetryAfter(); got != 45*time.Second {
		t.Fatalf("cold hint = %v, want 45s", got)
	}
	q.SetRetryHint(-1) // ignored
	if got := q.RetryAfter(); got != 45*time.Second {
		t.Fatalf("negative hint applied: %v", got)
	}
	// Once a sample exists the EWMA takes over.
	q.mu.Lock()
	q.observeLocked(2 * time.Second)
	q.mu.Unlock()
	if got := q.RetryAfter(); got != 2*time.Second {
		t.Fatalf("post-sample estimate = %v, want 2s", got)
	}
}

// TestSubLeaseNeverJournaled pins the sub-lease contract: a job submitted
// with SubmitSubLease rides the full lease lifecycle but leaves no trace
// in the journal — a parent job re-derives its sub-units on recovery, so
// journaling them would only multiply WAL traffic, and replaying one
// without its parent would be meaningless.
func TestSubLeaseNeverJournaled(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(16, 1)
	q.AttachJournal(w, stringCodec)

	// One journaled job so the journal is provably live, then a full
	// sub-lease lifecycle (grant, complete) interleaved with it.
	if _, err := q.SubmitLeasable(context.Background(), Normal, "parent", nil); err != nil {
		t.Fatal(err)
	}
	tSub, err := q.SubmitSubLease(context.Background(), High, "sub-chunk", nil)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := q.Lease() // High first: the sub-lease
	if !ok || l.Payload.(string) != "sub-chunk" {
		t.Fatalf("first lease got %+v, want the sub-lease", l)
	}
	if err := q.Complete(l.ID, "chunk stats"); err != nil {
		t.Fatal(err)
	}
	<-tSub.Done()
	if res, err := tSub.Outcome(); err != nil || res.(string) != "chunk stats" {
		t.Fatalf("sub-lease outcome = %v, %v", res, err)
	}

	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	jobs, lastID := replayDir(t, dir)
	if len(jobs) != 1 || jobs[0].Payload.(string) != "parent" {
		t.Fatalf("replay recovered %+v, want only the parent", jobs)
	}
	if lastID != 1 {
		t.Fatalf("lastID = %d, want 1 (the sub-lease must not burn journal IDs)", lastID)
	}
}

// TestSubLeaseRefusedDuringDrain pins the fallback contract: once the
// queue drains, sub-lease submission fails fast with ErrDraining so the
// caller can evaluate inline instead of hanging on a queue whose workers
// are gone.
func TestSubLeaseRefusedDuringDrain(t *testing.T) {
	q := New(4, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitSubLease(context.Background(), Normal, "late", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
}
