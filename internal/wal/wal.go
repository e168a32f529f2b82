// Package wal is a segmented write-ahead journal: the durability
// substrate of the wavemind serving tier. Callers append opaque records;
// the journal guarantees that once an append's Commit has been waited
// on, the record survives a process crash (kill -9) and is delivered —
// in order — to the replay callback at the next Open.
//
// # Framing
//
// A record is framed as
//
//	[u32le payload length][u8 kind][u32le CRC32C(payload)][payload]
//
// and segments are append-only files named wal-<16-digit-index>.seg.
// CRC32C (Castagnoli) detects bit flips; the length prefix detects
// truncation. A torn FINAL record — the partial write of the crash
// itself — is silently truncated at replay. A malformed record anywhere
// ELSE is real corruption: replay fails with a *CorruptError, unless
// Options.BestEffort salvages the valid prefix and quarantines the rest
// (segment renamed to .corrupt) — the operator escape hatch, never the
// default.
//
// # Durability
//
// Append is ordered (records are framed into the journal in call order,
// so callers holding a state lock get journal order == state order) and
// asynchronous: it returns a *Commit whose Wait blocks until the record
// is durable under the configured SyncPolicy. SyncBatch amortizes fsync
// over a group-commit window: every Wait still only returns after a
// covering fsync, but concurrent appends share one. SyncNone trades
// durability of the unflushed tail for speed — acknowledged records can
// be lost to a crash, and the caller owns that trade.
//
// # Checkpoints
//
// Checkpoint(snapshot) rotates to a fresh segment whose first record is
// the snapshot (kind Checkpoint), then deletes every older segment.
// Replay applies a checkpoint by resetting state to the snapshot and
// then applying the records after it, so the journal's length is
// bounded by the churn since the last checkpoint, not by history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wavemin/internal/faultinject"
	"wavemin/internal/obs"
)

// RecordKind distinguishes ordinary records from checkpoint snapshots.
type RecordKind byte

const (
	// Data is an ordinary application record.
	Data RecordKind = 1
	// Checkpoint is a full-state snapshot: replay resets to it and
	// applies only records that follow.
	Checkpoint RecordKind = 2
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatch (the default) groups appends inside GroupWindow into one
	// fsync: every Commit.Wait still returns only after a covering
	// fsync, but concurrent appenders share it.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs every batch immediately, with no grouping
	// window: minimum acknowledged-loss exposure, maximum fsync count.
	SyncAlways
	// SyncNone never fsyncs on append (segment boundaries still sync).
	// A crash can lose the OS-buffered tail of acknowledged records —
	// for journals whose recent loss the operator accepts (wavemind
	// -fsync none).
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the wire/flag form: "always", "batch", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	default:
		return SyncBatch, fmt.Errorf("wal: unknown sync policy %q (want always, batch, or none)", s)
	}
}

// Options configures a journal. Zero values take the defaults noted.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 4 MiB). A batch is never split across segments,
	// so segments may overshoot by one batch.
	SegmentBytes int64
	// Sync is the append durability policy (default SyncBatch).
	Sync SyncPolicy
	// GroupWindow is the SyncBatch group-commit window (default 2ms):
	// how long the committer waits, after the first pending record, for
	// more appends to share the fsync.
	GroupWindow time.Duration
	// BestEffort salvages the valid prefix when replay hits mid-journal
	// corruption, quarantining corrupt segments as *.corrupt, instead of
	// failing Open with a *CorruptError.
	BestEffort bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.GroupWindow == 0 {
		o.GroupWindow = 2 * time.Millisecond
	}
	return o
}

// Report describes what replay found on disk.
type Report struct {
	Segments    int   // segment files scanned
	Records     int   // data records delivered to the replay callback
	Checkpoints int   // checkpoint records delivered
	TornBytes   int64 // bytes truncated from a torn final record
	Salvaged    bool  // BestEffort dropped a corrupt suffix
	Quarantined int   // segments renamed to *.corrupt by BestEffort
}

// CorruptError reports a malformed record that is not a torn tail:
// mid-journal corruption that replay refuses to skip silently.
type CorruptError struct {
	Segment string // file path of the corrupt segment
	Offset  int64  // byte offset of the malformed record
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s (re-run with best-effort recovery to salvage the valid prefix)", e.Segment, e.Offset, e.Reason)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize = 9
	// maxRecordBytes is a framing sanity bound: a length prefix beyond it
	// is treated as corruption (or a torn tail), not as a 4 GiB alloc.
	maxRecordBytes = 256 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

// ErrClosed reports an operation on a closed (or aborted) journal.
var ErrClosed = errors.New("wal: closed")

// Writer is an open journal positioned for appending. Construct with
// Open; safe for concurrent use.
type Writer struct {
	dir  string
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	pending []byte // framed records not yet handed to the committer
	appendL int64  // LSN of the newest framed record
	durable int64  // LSN through which records are durable
	err     error  // sticky failure; set once, never cleared
	closed  bool
	flush   bool // checkpoint/close wants the window skipped

	// io guards the segment file and its rotation; the committer holds
	// it while writing so Checkpoint can rotate without racing a batch.
	io     sync.Mutex
	f      *os.File
	seg    int64 // index of the open segment
	size   int64 // bytes written to the open segment
	closeC chan struct{}
	doneC  chan struct{}
}

// Commit is the durability handle of one Append.
type Commit struct {
	w   *Writer
	lsn int64
}

// Wait blocks until the record is durable under the journal's sync
// policy (or the journal failed) and returns the sticky error, if any.
func (c *Commit) Wait() error {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	for c.w.durable < c.lsn && c.w.err == nil {
		c.w.cond.Wait()
	}
	return c.w.err
}

// Open replays the journal in dir (creating dir if needed), delivering
// every record in order to replay, then returns a Writer positioned to
// append after the last valid record. A torn final record is truncated;
// mid-journal corruption fails with *CorruptError unless
// opts.BestEffort. A nil replay callback skips delivery (still
// validating frames) — for journals opened only to append.
func Open(dir string, opts Options, replay func(kind RecordKind, payload []byte) error) (*Writer, *Report, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{}
	for i, seg := range segs {
		last := i == len(segs)-1
		if err := replaySegment(dir, seg, last, opts.BestEffort, replay, rep); err != nil {
			return nil, nil, err
		}
		if rep.Salvaged {
			// Everything from the corruption point on is quarantined;
			// later segments are unreachable history.
			for _, rest := range segs[i+1:] {
				if qerr := quarantineSegment(segPath(dir, rest)); qerr == nil {
					rep.Quarantined++
				}
			}
			break
		}
	}
	rep.Segments = len(segs)

	w := &Writer{
		dir:    dir,
		opts:   opts,
		closeC: make(chan struct{}),
		doneC:  make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	// Append into a fresh segment: the tail segment may predate a crash,
	// and a clean boundary keeps torn-tail reasoning local to one file.
	next := int64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	if err := w.openSegment(next); err != nil {
		return nil, nil, err
	}
	go w.commitLoop()
	counters := obs.ExpvarCounters()
	counters.Add("wal_replayed_records", int64(rep.Records))
	counters.Add("wal_replayed_checkpoints", int64(rep.Checkpoints))
	counters.Add("wal_torn_bytes", rep.TornBytes)
	return w, rep, nil
}

func segPath(dir string, idx int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, idx, segSuffix))
}

func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []int64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idx, err := strconv.ParseInt(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
		if err != nil || idx <= 0 {
			continue
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func quarantineSegment(path string) error {
	return os.Rename(path, path+".corrupt")
}

// replaySegment scans one segment, delivering records to fn. last marks
// the final segment, where a malformed tail record is a torn write.
func replaySegment(dir string, idx int64, last, bestEffort bool, fn func(RecordKind, []byte) error, rep *Report) error {
	path := segPath(dir, idx)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		reason := ""
		var kind RecordKind
		var payload []byte
		if len(rest) < headerSize {
			reason = fmt.Sprintf("short header: %d bytes", len(rest))
		} else {
			n := int64(binary.LittleEndian.Uint32(rest))
			kind = RecordKind(rest[4])
			sum := binary.LittleEndian.Uint32(rest[5:9])
			switch {
			case n > maxRecordBytes:
				reason = fmt.Sprintf("implausible record length %d", n)
			case kind != Data && kind != Checkpoint:
				reason = fmt.Sprintf("unknown record kind %d", kind)
			case int64(len(rest))-headerSize < n:
				reason = fmt.Sprintf("short payload: have %d of %d bytes", int64(len(rest))-headerSize, n)
			default:
				payload = rest[headerSize : headerSize+n]
				if crc32.Checksum(payload, castagnoli) != sum {
					reason = "CRC32C mismatch"
				}
			}
		}
		if reason != "" {
			if last {
				// The torn final write of the crash itself: truncate and
				// carry on — nothing after it was ever acknowledged as
				// durable under any sync policy that fsyncs in order.
				rep.TornBytes = int64(len(data)) - off
				return truncateSegment(path, off)
			}
			if bestEffort {
				// Salvage: keep the valid prefix live on disk (so the
				// journal replays to the same state next time), save the
				// corrupt suffix aside for forensics.
				rep.Salvaged = true
				_ = os.WriteFile(path+".corrupt", data[off:], 0o644)
				if err := truncateSegment(path, off); err != nil {
					return err
				}
				rep.Quarantined++
				return nil
			}
			return &CorruptError{Segment: path, Offset: off, Reason: reason}
		}
		if fn != nil {
			if err := fn(kind, payload); err != nil {
				return fmt.Errorf("wal: replay callback: %w", err)
			}
		}
		if kind == Checkpoint {
			rep.Checkpoints++
		} else {
			rep.Records++
		}
		off += headerSize + int64(len(payload))
	}
	return nil
}

func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	return f.Sync()
}

// openSegment creates segment idx and makes it current. Caller must
// hold w.io (or be the only goroutine with access, as in Open).
func (w *Writer) openSegment(idx int64) error {
	f, err := os.OpenFile(segPath(w.dir, idx), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.seg, w.size = f, idx, 0
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

func frame(kind RecordKind, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	buf[4] = byte(kind)
	binary.LittleEndian.PutUint32(buf[5:9], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)
	return buf
}

// Append frames payload into the journal and returns its durability
// handle. The record's position in the journal is fixed by the order of
// Append calls — callers serializing Appends with their state mutations
// (e.g. under one mutex) get replay order == state order. The record is
// NOT durable until Commit.Wait returns nil.
func (w *Writer) Append(payload []byte) (*Commit, error) {
	if int64(len(payload)) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(payload), int64(maxRecordBytes))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	if w.err != nil {
		return nil, w.err
	}
	w.pending = append(w.pending, frame(Data, payload)...)
	w.appendL++
	w.cond.Broadcast()
	obs.ExpvarCounters().Add("wal_appends", 1)
	return &Commit{w: w, lsn: w.appendL}, nil
}

// commitLoop is the group committer: it drains pending batches to the
// segment file and fsyncs them per policy, advancing the durable LSN.
func (w *Writer) commitLoop() {
	defer close(w.doneC)
	for {
		w.mu.Lock()
		for len(w.pending) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if (w.closed || w.err != nil) && len(w.pending) == 0 {
			w.mu.Unlock()
			return
		}
		if w.opts.Sync == SyncBatch && w.opts.GroupWindow > 0 && !w.flush {
			// Group commit: let concurrent appenders pile onto this fsync.
			w.mu.Unlock()
			time.Sleep(w.opts.GroupWindow)
			w.mu.Lock()
		}
		batch := w.pending
		w.pending = nil
		target := w.appendL
		w.flush = false
		w.mu.Unlock()

		err := w.writeBatch(batch)

		w.mu.Lock()
		if err != nil {
			if w.err == nil {
				w.err = err
			}
		} else {
			w.durable = target
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// writeBatch appends one batch of framed records to the current segment,
// rotating first if the segment is over its bound, and syncs per policy.
func (w *Writer) writeBatch(batch []byte) error {
	w.io.Lock()
	defer w.io.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if w.size > 0 && w.size+int64(len(batch)) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if err := faultinject.ErrAt(faultinject.SiteWALAppend); err != nil {
		// Injected torn write: half the batch lands, the rest never does
		// — exactly what a crash mid-write leaves behind.
		_, _ = w.f.Write(batch[:len(batch)/2])
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := w.f.Write(batch); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	w.size += int64(len(batch))
	if w.opts.Sync != SyncNone {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) syncLocked() error {
	if err := faultinject.ErrAt(faultinject.SiteWALSync); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	obs.ExpvarCounters().Add("wal_syncs", 1)
	return nil
}

// rotateLocked seals the current segment and opens the next. Caller
// holds w.io.
func (w *Writer) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	return w.openSegment(w.seg + 1)
}

// Checkpoint rotates to a fresh segment whose first record is snapshot,
// fsyncs it, and deletes all older segments. On return the journal's
// replayable state is exactly: snapshot, plus whatever is appended
// later. Callers must serialize Checkpoint with their own Appends (the
// jobq holds its state lock across both), or the snapshot may miss
// records framed after it was taken.
func (w *Writer) Checkpoint(snapshot []byte) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.flush = true
	w.cond.Broadcast()
	for w.durable < w.appendL && w.err == nil {
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	// Committer is idle (nothing pending) and we hold w.mu, so no new
	// batch can start; taking w.io cannot deadlock.
	w.io.Lock()
	err := w.checkpointIOLocked(snapshot)
	if err != nil && w.err == nil {
		w.err = err
		w.cond.Broadcast()
	}
	w.io.Unlock()
	w.mu.Unlock()
	if err == nil {
		obs.ExpvarCounters().Add("wal_checkpoints", 1)
	}
	return err
}

func (w *Writer) checkpointIOLocked(snapshot []byte) error {
	old := w.seg
	if err := w.rotateLocked(); err != nil {
		return err
	}
	if _, err := w.f.Write(frame(Checkpoint, snapshot)); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	w.size += headerSize + int64(len(snapshot))
	if err := w.syncLocked(); err != nil {
		return err
	}
	// The snapshot is durable; history before it is dead weight.
	for idx := old; idx >= 1; idx-- {
		path := segPath(w.dir, idx)
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				break // already pruned by an earlier checkpoint
			}
			return fmt.Errorf("wal: pruning %s: %w", path, err)
		}
	}
	return syncDir(w.dir)
}

// Sync forces everything appended so far to disk (even under SyncNone)
// and returns when it is durable.
func (w *Writer) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.flush = true
	w.cond.Broadcast()
	for w.durable < w.appendL && w.err == nil {
		w.cond.Wait()
	}
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.io.Lock()
	defer w.io.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	return w.syncLocked()
}

// Err returns the journal's sticky failure, if any: once an append
// batch, sync, or checkpoint fails, the journal accepts no more work.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close flushes pending records, fsyncs, and closes the journal.
func (w *Writer) Close() error { return w.close(true) }

// Abort closes the journal WITHOUT flushing pending records — the
// crash-simulation path for recovery tests: whatever the committer had
// not yet written simply never happened, exactly like kill -9.
func (w *Writer) Abort() { _ = w.close(false) }

func (w *Writer) close(flush bool) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if !flush {
		w.pending = nil // drop unwritten records on the floor
		if w.err == nil {
			w.err = ErrClosed
		}
	}
	w.closed = true
	w.flush = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.doneC

	w.io.Lock()
	defer w.io.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if flush {
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: close: %w", serr)
		}
	}
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	w.f = nil
	w.mu.Lock()
	if w.err == nil {
		w.err = ErrClosed
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// ReadAll replays the journal in dir without opening it for append —
// the inspection path for tools and tests. It applies the same framing
// rules as Open, including torn-tail truncation.
func ReadAll(dir string, bestEffort bool, fn func(kind RecordKind, payload []byte) error) (*Report, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	rep := &Report{Segments: len(segs)}
	for i, seg := range segs {
		if err := replaySegment(dir, seg, i == len(segs)-1, bestEffort, fn, rep); err != nil {
			return nil, err
		}
		if rep.Salvaged {
			break
		}
	}
	return rep, nil
}
