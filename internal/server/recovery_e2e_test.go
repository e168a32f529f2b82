package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"wavemin/internal/dispatch"
	"wavemin/internal/faultinject"
)

// TestRecoveryEndToEnd drives the durable serving tier through crashes:
// each scenario runs one or more server incarnations over the same
// DataDir, cutting power (Server.Crash) between them, and asserts the
// durability contract — accepted jobs survive under their public IDs,
// persisted results replay byte-identically without re-solving, corrupt
// store entries are quarantined and re-solved, and a failed fsync is
// never acknowledged. Scenarios run sequentially: several install
// process-global faultinject hooks.
func TestRecoveryEndToEnd(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"CrashRestartPreservesBacklogAndResults", recoveryCrashRestart},
		{"CorruptStoreEntryQuarantinedAndReSolved", recoveryCorruptEntry},
		{"FsyncFaultRefusesAcknowledgement", recoveryFsyncFault},
		{"StoreWriteFaultRerunsLocalJob", recoveryStoreWriteFault},
		{"CleanDrainLeavesEmptyBacklog", recoveryCleanDrain},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			sc.run(t)
		})
	}
}

func durableOpts(dir string) Options {
	return Options{
		DataDir:        dir,
		Workers:        1,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
	}
}

func recoveryCrashRestart(t *testing.T) {
	dir := t.TempDir()

	// Reference bytes for the tree that will be interrupted mid-solve:
	// an uninterrupted dispatch-path solve on a throwaway memory-only
	// server. The recovered run must reproduce them exactly.
	ref := newHarness(t, Options{Dispatch: &dispatch.Options{LocalExec: true}})
	bodyB := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 12), "config": fastConfig()})
	code, resp := ref.post(bodyB)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d, body %v", code, resp)
	}
	if v := ref.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone {
		t.Fatalf("reference job finished %s (error %q)", v.Status, v.Error)
	}
	_, refB := ref.resultBody(jobID(t, resp))

	h1 := newHarness(t, durableOpts(dir))

	// Job A completes before the crash; its result must survive it.
	bodyA := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()})
	code, resp = h1.post(bodyA)
	if code != http.StatusAccepted {
		t.Fatalf("submit A: status %d, body %v", code, resp)
	}
	idA := jobID(t, resp)
	if v := h1.waitJob(idA, 30*time.Second); v.Status != StatusDone {
		t.Fatalf("job A finished %s (error %q)", v.Status, v.Error)
	}
	_, resA := h1.resultBody(idA)

	// Wedge the solver: B crashes mid-solve, C dies queued behind it.
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	faultinject.Set(faultinject.SitePolarityZone, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	code, resp = h1.post(bodyB)
	if code != http.StatusAccepted {
		t.Fatalf("submit B: status %d, body %v", code, resp)
	}
	idB := jobID(t, resp)
	<-started // B is mid-solve
	bodyC := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 16), "config": fastConfig()})
	code, resp = h1.post(bodyC)
	if code != http.StatusAccepted {
		t.Fatalf("submit C: status %d, body %v", code, resp)
	}
	idC := jobID(t, resp)

	// Power cut. The 202s above were ack-gated on the journal, so both
	// accept records are durable even though neither job finished.
	h1.srv.Crash()
	faultinject.Reset()
	close(release)

	h2 := newHarness(t, durableOpts(dir))
	rec := h2.srv.Recovery()
	if !rec.Durable || rec.JobsRestored != 2 {
		t.Fatalf("recovery = %+v, want 2 jobs restored", rec)
	}

	// The backlog survives under the same public IDs and runs to done.
	for _, id := range []string{idB, idC} {
		if v := h2.waitJob(id, 30*time.Second); v.Status != StatusDone {
			t.Fatalf("recovered job %s finished %s (error %q)", id, v.Status, v.Error)
		}
	}
	// The interrupted solve reproduced the uninterrupted bytes exactly.
	if _, gotB := h2.resultBody(idB); !bytes.Equal(refB, gotB) {
		t.Fatalf("recovered result diverged:\n want %s\n got  %s", refB, gotB)
	}
	// A was terminal pre-crash: replay drops it from the registry.
	if code, _ := h2.get("/v1/jobs/" + idA); code != http.StatusNotFound {
		t.Fatalf("pre-crash terminal job still in registry: status %d", code)
	}

	// A's result bytes survived the crash in the store: resubmitting is
	// an immediate 200 served from disk, byte-identical, with no solve.
	diskHitsBefore := h2.srv.MetricsSnapshot().TieredCache.DiskHits
	code, resp = h2.post(bodyA)
	if code != http.StatusOK {
		t.Fatalf("resubmit of pre-crash result: status %d, body %v (want immediate cache hit)", code, resp)
	}
	_, resA2 := h2.resultBody(jobID(t, resp))
	if !bytes.Equal(resA, resA2) {
		t.Fatalf("result lost fidelity across crash:\n before %s\n after  %s", resA, resA2)
	}
	m := h2.srv.MetricsSnapshot()
	if m.TieredCache.DiskHits != diskHitsBefore+1 {
		t.Fatalf("disk hits %d -> %d, want one disk-served hit", diskHitsBefore, m.TieredCache.DiskHits)
	}
	if m.JournalErrs != 0 {
		t.Fatalf("journal errors after recovery: %d", m.JournalErrs)
	}

	if err := h2.srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func recoveryCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	h1 := newHarness(t, durableOpts(dir))
	body := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()})
	code, resp := h1.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, resp)
	}
	if v := h1.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone {
		t.Fatalf("job finished %s (error %q)", v.Status, v.Error)
	}
	_, want := h1.resultBody(jobID(t, resp))
	if err := h1.srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Rot the stored entry on disk: flip one payload byte.
	objs, err := filepath.Glob(filepath.Join(dir, "store", "objects", "*", "*", "*.obj"))
	if err != nil || len(objs) != 1 {
		t.Fatalf("object files %v (err %v), want exactly one", objs, err)
	}
	raw, err := os.ReadFile(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(objs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The next incarnation must not serve the rotten bytes: the entry is
	// quarantined, the job re-solves, and the fresh result matches the
	// original exactly (and heals the store).
	h2 := newHarness(t, durableOpts(dir))
	code, resp = h2.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit over corrupt entry: status %d, body %v (a corrupt entry was served as a cache hit)", code, resp)
	}
	if v := h2.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone {
		t.Fatalf("re-solve finished %s (error %q)", v.Status, v.Error)
	}
	_, got := h2.resultBody(jobID(t, resp))
	if !bytes.Equal(want, got) {
		t.Fatalf("re-solved result diverged:\n want %s\n got  %s", want, got)
	}
	m := h2.srv.MetricsSnapshot()
	if m.StoreStats.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", m.StoreStats.Quarantined)
	}
	if qs, _ := filepath.Glob(filepath.Join(dir, "store", "quarantine", "*.corrupt")); len(qs) != 1 {
		t.Fatalf("quarantine dir holds %v, want one preserved corpse", qs)
	}
	// The healed entry now serves resubmissions again.
	if code, _ = h2.post(body); code != http.StatusOK {
		t.Fatalf("resubmit after heal: status %d, want cache hit", code)
	}
	if err := h2.srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// recoveryStoreWriteFault: one failed result write costs the job a
// re-run, not its life. The local executor's persist failure requeues
// the job against its retry budget, as a remote worker's completion
// refused with persist_failed does.
func recoveryStoreWriteFault(t *testing.T) {
	h := newHarness(t, durableOpts(t.TempDir()))
	var writes atomic.Int64
	faultinject.SetErr(faultinject.SiteCastoreWrite, func() error {
		if writes.Add(1) == 1 {
			return errors.New("injected: disk full")
		}
		return nil
	})
	code, resp := h.post(marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()}))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, resp)
	}
	if v := h.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone {
		t.Fatalf("job finished %s (error %q) after one store write fault", v.Status, v.Error)
	}
	m := h.srv.MetricsSnapshot()
	if w := writes.Load(); w != 2 || m.SolverRuns != 2 || m.StoreStats.Puts != 1 {
		t.Fatalf("%d store writes, %d solver runs, %d store puts; want 2, 2, 1", w, m.SolverRuns, m.StoreStats.Puts)
	}
	if err := h.srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func recoveryFsyncFault(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.Fsync = "always"
	h1 := newHarness(t, opts)

	// Every journal fsync fails: the accept record cannot be made
	// durable, so the submission must be refused — never a 202 the
	// journal cannot honor.
	faultinject.SetErr(faultinject.SiteWALSync, func() error {
		return errors.New("injected: fsync failed")
	})
	body := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()})
	code, resp := h1.post(body)
	if code < 400 {
		t.Fatalf("submit with failing fsync: status %d, body %v (acknowledged a job the journal cannot keep)", code, resp)
	}
	if errs := h1.srv.MetricsSnapshot().JournalErrs; errs == 0 {
		t.Fatal("failed fsync left no journal-error trace")
	}
	faultinject.Reset()

	// Whatever the torn journal holds, the next incarnation recovers to
	// a consistent state: any restored job (an accept whose bytes hit
	// the OS before the failed fsync) simply re-runs; none is acked-lost.
	h1.srv.Crash()
	h2 := newHarness(t, durableOpts(dir))
	rec := h2.srv.Recovery()
	if rec.JobsRestored > 1 {
		t.Fatalf("recovery restored %d jobs from a single refused submission", rec.JobsRestored)
	}
	// Serving works again end to end after the fault clears.
	code, resp = h2.post(body)
	switch code {
	case http.StatusAccepted:
		if v := h2.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone {
			t.Fatalf("post-fault job finished %s (error %q)", v.Status, v.Error)
		}
	case http.StatusOK:
		// Also fine: a restored ghost of the refused submission already
		// re-ran and cached the result.
	default:
		t.Fatalf("submit after restart: status %d, body %v", code, resp)
	}
	if err := h2.srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func recoveryCleanDrain(t *testing.T) {
	dir := t.TempDir()
	h1 := newHarness(t, durableOpts(dir))
	body := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()})
	code, resp := h1.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, resp)
	}
	if v := h1.waitJob(jobID(t, resp), 30*time.Second); v.Status != StatusDone {
		t.Fatalf("job finished %s (error %q)", v.Status, v.Error)
	}
	if err := h1.srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// A clean drain checkpoints an empty backlog: the next start replays
	// nothing but still has the result.
	h2 := newHarness(t, durableOpts(dir))
	rec := h2.srv.Recovery()
	if rec.JobsRestored != 0 {
		t.Fatalf("clean shutdown left %d jobs to restore", rec.JobsRestored)
	}
	if code, _ := h2.post(body); code != http.StatusOK {
		t.Fatalf("resubmit after clean restart: status %d, want cache hit", code)
	}
	if err := h2.srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestRecoveredJobView covers the registry reattachment details the e2e
// path does not pin down: a recovered job is visible as queued/running
// under its old ID immediately after New, and fresh submissions get IDs
// beyond every recovered one.
func TestRecoveredJobView(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	h1 := newHarness(t, durableOpts(dir))

	release := make(chan struct{})
	started := make(chan struct{}, 16)
	faultinject.Set(faultinject.SitePolarityZone, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	body := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()})
	code, resp := h1.post(body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, resp)
	}
	id := jobID(t, resp)
	<-started
	h1.srv.Crash()
	faultinject.Reset()
	close(release)

	h2 := newHarness(t, durableOpts(dir))
	code, raw := h2.get("/v1/jobs/" + id)
	if code != http.StatusOK {
		t.Fatalf("recovered job lookup: status %d: %s", code, raw)
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status == StatusFailed || v.Status == StatusExpired {
		t.Fatalf("recovered job is %s (error %q)", v.Status, v.Error)
	}
	if v.JobID != id {
		t.Fatalf("recovered job ID %q, want %q", v.JobID, id)
	}
	if h2.waitJob(id, 30*time.Second).Status != StatusDone {
		t.Fatal("recovered job did not finish")
	}

	// Fresh submissions must not collide with recovered IDs.
	code, resp = h2.post(marshalReq(t, map[string]any{
		"tree": smallTreeJSON(t, 12), "config": fastConfig(),
	}))
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit: status %d, body %v", code, resp)
	}
	if fresh := jobID(t, resp); fresh == id {
		t.Fatalf("fresh job reused recovered ID %q", fresh)
	}
	if err := h2.srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
