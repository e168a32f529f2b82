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
// Eviction is LRU by byte budget, and recency survives restarts in the
// entry files themselves, the store's only record of what it holds: Put
// and a Get hit stamp the file's modification time, and Open orders the
// files it walks newest first (ties broken by key) before it enforces
// the budget. Stamps are not fsynced: a machine crash can lose the last
// few, which costs a slightly wrong eviction order, nothing more.
package castore

import (
	"cmp"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"wavemin/internal/faultinject"
	"wavemin/internal/obs"
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

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries     int   // resident entries
	Bytes       int64 // resident entry-file bytes
	Hits        int64
	Misses      int64
	Puts        int64
	Evictions   int64 // entries deleted to respect MaxBytes
	Quarantined int64 // corrupt entries moved aside instead of served
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
	key  string
	size int64 // framed file size on disk
}

// Store is a persistent content-addressed store. Construct with Open;
// safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	items   map[string]*list.Element // of *entry
	lru     *list.List               // front = most recently used
	bytes   int64
	stamp   time.Time // latest recency stamp issued or found at Open
	quarSeq int64
	closed  bool

	hits, misses, puts, evictions, quarantined int64
}

// Open opens (creating if needed) the store rooted at dir: it walks the
// entry files, rebuilds the LRU list from their recency stamps, and
// enforces the byte budget.
func Open(dir string, opts Options) (*Store, error) {
	for _, sub := range []string{"objects", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("castore: %w", err)
		}
	}
	// Older stores kept recency in an index journal under index/. The
	// entry files now carry it, so the journal is only stale bytes.
	if err := os.RemoveAll(filepath.Join(dir, "index")); err != nil {
		return nil, fmt.Errorf("castore: removing old index: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		items: make(map[string]*list.Element),
		lru:   list.New(),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.evictToBudgetLocked()
	return s, nil
}

// scan walks the object tree and lists every entry file from most to
// least recently stamped, ties broken by key so the order does not
// depend on the walk. Runs inside Open, before the store is shared: no
// lock needed.
func (s *Store) scan() error {
	type found struct {
		entry
		stamp time.Time
	}
	var files []found
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
		files = append(files, found{entry{key: key, size: info.Size()}, info.ModTime()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("castore: scanning objects: %w", err)
	}
	slices.SortFunc(files, func(a, b found) int {
		if c := b.stamp.Compare(a.stamp); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	for _, f := range files {
		s.items[f.key] = s.lru.PushBack(&entry{key: f.key, size: f.size})
		s.bytes += f.size
	}
	if len(files) > 0 {
		s.stamp = files[0].stamp
	}
	return nil
}

// --- LRU list (caller holds s.mu once the store is shared) ---------------

// record marks key, size bytes on disk, as the most recently used entry.
func (s *Store) record(key string, size int64) {
	el, ok := s.items[key]
	if !ok {
		s.items[key] = s.lru.PushFront(&entry{key: key, size: size})
		s.bytes += size
		return
	}
	e := el.Value.(*entry)
	s.bytes += size - e.size
	e.size = size
	s.lru.MoveToFront(el)
}

func (s *Store) remove(el *list.Element) {
	e := s.lru.Remove(el).(*entry)
	delete(s.items, e.key)
	s.bytes -= e.size
}

// touchLocked stamps key's entry file as the most recently used. Each
// stamp is later than every stamp before it, even when the wall clock
// stalls or steps back, so the order Open reads back is the order of
// the LRU list. A failed stamp costs eviction order, never an entry.
func (s *Store) touchLocked(key string) {
	now := time.Now().Round(0) // no monotonic reading: compare wall clocks, as the files do
	if !now.After(s.stamp) {
		now = s.stamp.Add(time.Nanosecond)
	}
	s.stamp = now
	_ = os.Chtimes(s.objPath(key), now, now)
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
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, false
	}
	data, err := os.ReadFile(s.objPath(key))
	if err != nil {
		// Listed as present, disk disagrees: drop the entry, miss.
		s.remove(el)
		s.misses++
		return nil, false
	}
	payload, verr := verifyEntry(data)
	if verr != nil {
		s.quarantineLocked(el)
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	s.touchLocked(key)
	obs.ExpvarCounters().Add("castore_hits", 1)
	return payload, true
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
	s.record(key, int64(len(framed)))
	s.touchLocked(key)
	s.evictToBudgetLocked()
	return nil
}

// quarantineLocked moves a corrupt entry's file aside and drops it from
// the LRU list: rot is preserved for forensics but never served.
func (s *Store) quarantineLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.quarSeq++
	dst := filepath.Join(s.dir, "quarantine", fmt.Sprintf("%s.%d.corrupt", e.key, s.quarSeq))
	if err := os.Rename(s.objPath(e.key), dst); err != nil {
		_ = os.Remove(s.objPath(e.key))
	}
	s.quarantined++
	obs.ExpvarCounters().Add("castore_quarantined", 1)
	s.remove(el)
}

func (s *Store) evictToBudgetLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes && s.lru.Len() > 0 {
		victim := s.lru.Back()
		_ = os.Remove(s.objPath(victim.Value.(*entry).key))
		s.evictions++
		obs.ExpvarCounters().Add("castore_evictions", 1)
		s.remove(victim)
	}
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
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
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
	}
}

// Close closes the store. Every recency stamp is already on its entry
// file, so there is nothing left to flush.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
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
