// Package castore is a persistent content-addressed store: the disk
// tier behind wavemind's result cache. Values are opaque bytes stored
// one file per key (wavemin's sha256 Design.CacheKey) under a sharded
// two-level prefix directory, so a restart — or another coordinator
// sharing the directory tree — sees every result ever completed.
//
// # Integrity
//
// Every entry file is framed [magic][u32le length][u32le CRC32C][bytes]
// and written atomically (tmp file in the same shard directory, fsync,
// rename, dir fsync when Options.Sync). Reads verify the frame: a
// corrupt entry is QUARANTINED — moved to quarantine/ and reported as a
// miss — never served. Content addressing makes this safe: a miss just
// re-solves the problem and rewrites the entry; serving rotted bytes
// would silently corrupt a caller's design.
//
// # Recency
//
// Eviction is LRU by byte budget, and recency survives restarts: an
// append-only index journal (internal/wal, SyncNone — losing a few
// recency updates to a crash costs a slightly wrong eviction order,
// nothing more) records put/touch/evict operations and is compacted
// into a checkpoint snapshot as it grows. Object files, not the index,
// are the source of truth: entries the index has never heard of (a
// crash between rename and index append, or another writer) are
// adopted at open as least-recently-used.
package castore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"wavemin/internal/faultinject"
	"wavemin/internal/obs"
	"wavemin/internal/wal"
)

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the total size of entry files on disk; least-
	// recently-used entries are deleted to respect it. 0 = unbounded.
	MaxBytes int64
	// Sync fsyncs entry files (and their directories) before an entry is
	// considered stored. Off, a crash can lose recent puts — they
	// re-solve on the next request — but a served entry is always whole.
	Sync bool
}

// compactEvery is how many index operations since the last checkpoint
// trigger a compaction of the index journal.
const compactEvery = 4096

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries     int   // resident entries
	Bytes       int64 // resident entry-file bytes
	Hits        int64
	Misses      int64
	Puts        int64
	Evictions   int64 // entries deleted to respect MaxBytes
	Quarantined int64 // corrupt entries moved aside instead of served
	Orphans     int64 // entries adopted at Open that the index had lost
}

var (
	entryMagic = [4]byte{'W', 'M', 'C', '1'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

const entryHeader = 12 // magic + length + crc

// ErrBadKey reports a key that is not a plausible content hash — the
// store refuses it rather than risk path tricks.
var ErrBadKey = errors.New("castore: key is not a lowercase hex content hash")

func validKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

type entry struct {
	key        string
	size       int64 // framed file size on disk
	prev, next *entry
}

// Store is a persistent content-addressed store. Construct with Open;
// safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	items   map[string]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	bytes   int64
	ops     int // index records since the last compaction
	index   *wal.Writer
	quarSeq int64
	closed  bool

	hits, misses, puts, evictions, quarantined, orphans int64
}

// index journal records. Op is "p" (put), "t" (touch), "e" (evict); a
// checkpoint snapshot is a JSON array of indexEntry in LRU order
// (most recent first).
type indexRec struct {
	Op   string `json:"op"`
	Key  string `json:"k"`
	Size int64  `json:"n,omitempty"`
}

type indexEntry struct {
	Key  string `json:"k"`
	Size int64  `json:"n"`
}

// Open opens (creating if needed) the store rooted at dir: it replays
// the index journal, adopts any entry files the index lost, and
// enforces the byte budget.
func Open(dir string, opts Options) (*Store, error) {
	for _, sub := range []string{"objects", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("castore: %w", err)
		}
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		items: make(map[string]*entry),
	}
	// Recency is best-effort by design: the index journal is opened with
	// BestEffort so a rotted index can never block the store — object
	// files are the source of truth and the scan below readopts them.
	idx, _, err := wal.Open(filepath.Join(dir, "index"), wal.Options{Sync: wal.SyncNone, BestEffort: true}, s.replayIndex)
	if err != nil {
		return nil, fmt.Errorf("castore: index journal: %w", err)
	}
	s.index = idx
	if err := s.adoptOrphans(); err != nil {
		idx.Close()
		return nil, err
	}
	s.mu.Lock()
	s.evictToBudgetLocked()
	s.compactLocked(true)
	s.mu.Unlock()
	return s, nil
}

// replayIndex rebuilds the LRU list from one index journal record.
// Runs inside wal.Open, before the store is shared: no lock needed.
func (s *Store) replayIndex(kind wal.RecordKind, payload []byte) error {
	if kind == wal.Checkpoint {
		var snap []indexEntry
		if err := json.Unmarshal(payload, &snap); err != nil {
			return nil // malformed snapshot: scan will readopt everything
		}
		s.items = make(map[string]*entry, len(snap))
		s.head, s.tail, s.bytes = nil, nil, 0
		// Snapshot is most-recent-first; pushing back preserves order.
		for _, ie := range snap {
			s.pushBack(&entry{key: ie.Key, size: ie.Size})
		}
		return nil
	}
	var rec indexRec
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil // skip rot: recency hints only
	}
	switch rec.Op {
	case "p":
		if e, ok := s.items[rec.Key]; ok {
			s.bytes += rec.Size - e.size
			e.size = rec.Size
			s.moveFront(e)
		} else {
			s.pushFront(&entry{key: rec.Key, size: rec.Size})
		}
	case "t":
		if e, ok := s.items[rec.Key]; ok {
			s.moveFront(e)
		}
	case "e":
		if e, ok := s.items[rec.Key]; ok {
			s.unlink(e)
		}
	}
	return nil
}

// adoptOrphans walks the object tree and adopts files the index lost
// (crash between rename and index append, or a foreign writer), as
// least-recently-used; index entries whose file vanished are dropped.
func (s *Store) adoptOrphans() error {
	onDisk := make(map[string]int64)
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if filepath.Ext(name) != ".obj" {
			// Stray tmp file from a crashed put: never renamed, never
			// acknowledged — delete it.
			_ = os.Remove(path)
			return nil
		}
		key := name[:len(name)-len(".obj")]
		if !validKey(key) {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		onDisk[key] = info.Size()
		return nil
	})
	if err != nil {
		return fmt.Errorf("castore: scanning objects: %w", err)
	}
	for key, size := range onDisk {
		if e, ok := s.items[key]; ok {
			if e.size != size { // index drifted; trust the file
				s.bytes += size - e.size
				e.size = size
			}
			continue
		}
		s.pushBack(&entry{key: key, size: size})
		s.orphans++
	}
	for key, e := range s.items {
		if _, ok := onDisk[key]; !ok {
			s.unlink(e)
		}
	}
	obs.ExpvarCounters().Add("castore_orphans_adopted", s.orphans)
	return nil
}

// --- LRU list (caller holds s.mu once the store is shared) ---------------

func (s *Store) pushFront(e *entry) {
	s.items[e.key] = e
	s.bytes += e.size
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Store) pushBack(e *entry) {
	s.items[e.key] = e
	s.bytes += e.size
	e.next, e.prev = nil, s.tail
	if s.tail != nil {
		s.tail.next = e
	}
	s.tail = e
	if s.head == nil {
		s.head = e
	}
}

func (s *Store) unlink(e *entry) {
	delete(s.items, e.key)
	s.bytes -= e.size
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) moveFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e) // unlink subtracts the size; pushFront re-adds it
	s.pushFront(e)
}

// --- paths ----------------------------------------------------------------

func (s *Store) objPath(key string) string {
	return filepath.Join(s.dir, "objects", key[0:2], key[2:4], key+".obj")
}

// --- operations -----------------------------------------------------------

// Get returns the bytes stored under key. A corrupt entry is moved to
// quarantine/ and reported as a miss — the caller re-solves and the
// rewrite heals the store. The returned slice is the caller's to keep.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	e, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, false
	}
	data, err := os.ReadFile(s.objPath(key))
	if err != nil {
		// Index said present, disk disagrees: drop the entry, miss.
		s.dropLocked(e, "e")
		s.misses++
		return nil, false
	}
	payload, verr := verifyEntry(data)
	if verr != nil {
		s.quarantineLocked(e)
		s.misses++
		return nil, false
	}
	s.hits++
	s.moveFront(e)
	s.appendIndexLocked(indexRec{Op: "t", Key: key})
	obs.ExpvarCounters().Add("castore_hits", 1)
	return payload, true
}

// Contains reports whether key is resident, without touching recency,
// counters, or the disk frame.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[key]
	return ok
}

// Put stores val under key atomically: tmp file, (fsync), rename. An
// entry alone larger than the byte budget is not stored.
func (s *Store) Put(key string, val []byte) error {
	if !validKey(key) {
		return ErrBadKey
	}
	framed := frameEntry(val)
	if s.opts.MaxBytes > 0 && int64(len(framed)) > s.opts.MaxBytes {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("castore: closed")
	}
	shard := filepath.Dir(s.objPath(key))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	if err := writeEntryFile(shard, s.objPath(key), framed, s.opts.Sync); err != nil {
		return err
	}
	s.puts++
	obs.ExpvarCounters().Add("castore_puts", 1)
	if e, ok := s.items[key]; ok {
		s.bytes += int64(len(framed)) - e.size
		e.size = int64(len(framed))
		s.moveFront(e)
	} else {
		s.pushFront(&entry{key: key, size: int64(len(framed))})
	}
	s.appendIndexLocked(indexRec{Op: "p", Key: key, Size: int64(len(framed))})
	s.evictToBudgetLocked()
	s.compactLocked(false)
	return nil
}

// dropLocked removes e from the index (op "e") without touching its file.
func (s *Store) dropLocked(e *entry, op string) {
	s.unlink(e)
	s.appendIndexLocked(indexRec{Op: op, Key: e.key})
}

// quarantineLocked moves a corrupt entry's file aside and drops it from
// the index: rot is preserved for forensics but never served.
func (s *Store) quarantineLocked(e *entry) {
	s.quarSeq++
	dst := filepath.Join(s.dir, "quarantine", fmt.Sprintf("%s.%d.corrupt", e.key, s.quarSeq))
	if err := os.Rename(s.objPath(e.key), dst); err != nil {
		_ = os.Remove(s.objPath(e.key))
	}
	s.quarantined++
	obs.ExpvarCounters().Add("castore_quarantined", 1)
	s.dropLocked(e, "e")
}

func (s *Store) evictToBudgetLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes && s.tail != nil {
		victim := s.tail
		_ = os.Remove(s.objPath(victim.key))
		s.evictions++
		obs.ExpvarCounters().Add("castore_evictions", 1)
		s.dropLocked(victim, "e")
	}
}

// appendIndexLocked journals one recency operation. Failures are
// swallowed: the index is a hint, the object files are the truth.
func (s *Store) appendIndexLocked(rec indexRec) {
	if s.index == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if _, err := s.index.Append(b); err != nil {
		return
	}
	s.ops++
}

// compactLocked checkpoints the index journal when it has grown past
// the compaction threshold (or force), bounding replay time at Open.
func (s *Store) compactLocked(force bool) {
	if s.index == nil {
		return
	}
	if !force && s.ops < compactEvery {
		return
	}
	snap := make([]indexEntry, 0, len(s.items))
	for e := s.head; e != nil; e = e.next {
		snap = append(snap, indexEntry{Key: e.key, Size: e.size})
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return
	}
	if err := s.index.Checkpoint(b); err != nil {
		return
	}
	s.ops = 0
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Keys returns resident keys from most to least recently used.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.items))
	for e := s.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     len(s.items),
		Bytes:       s.bytes,
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		Evictions:   s.evictions,
		Quarantined: s.quarantined,
		Orphans:     s.orphans,
	}
}

// Close compacts the index journal and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.compactLocked(true)
	if s.index != nil {
		return s.index.Close()
	}
	return nil
}

// Abort closes the store without compacting or flushing the index —
// the crash-simulation path: recency updates the committer had not yet
// written are lost, entry files are untouched.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.index != nil {
		s.index.Abort()
	}
}

// --- entry framing --------------------------------------------------------

func frameEntry(val []byte) []byte {
	buf := make([]byte, entryHeader+len(val))
	copy(buf, entryMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(val)))
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(val, castagnoli))
	copy(buf[entryHeader:], val)
	return buf
}

func verifyEntry(data []byte) ([]byte, error) {
	if len(data) < entryHeader {
		return nil, fmt.Errorf("castore: entry shorter than its header (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != entryMagic {
		return nil, errors.New("castore: bad entry magic")
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if int(n) != len(data)-entryHeader {
		return nil, fmt.Errorf("castore: entry length %d does not match file size %d", n, len(data)-entryHeader)
	}
	payload := data[entryHeader:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[8:12]) {
		return nil, errors.New("castore: CRC32C mismatch")
	}
	return payload, nil
}

func writeEntryFile(shard, dst string, framed []byte, sync bool) error {
	if err := faultinject.ErrAt(faultinject.SiteCastoreWrite); err != nil {
		return fmt.Errorf("castore: write: %w", err)
	}
	tmp, err := os.CreateTemp(shard, ".put-*")
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); _ = os.Remove(tmpName) }
	if _, err := tmp.Write(framed); err != nil {
		cleanup()
		return fmt.Errorf("castore: write: %w", err)
	}
	if sync {
		if err := faultinject.ErrAt(faultinject.SiteCastoreSync); err != nil {
			cleanup()
			return fmt.Errorf("castore: sync: %w", err)
		}
		if err := tmp.Sync(); err != nil {
			cleanup()
			return fmt.Errorf("castore: sync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("castore: close: %w", err)
	}
	if err := faultinject.ErrAt(faultinject.SiteCastoreRename); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("castore: rename: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("castore: rename: %w", err)
	}
	if sync {
		if d, err := os.Open(shard); err == nil {
			_ = d.Sync()
			d.Close()
		}
	}
	return nil
}
