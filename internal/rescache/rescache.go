// Package rescache is a content-addressed LRU result cache: byte values
// stored under canonical content-hash keys (wavemin's Design.CacheKey),
// bounded by both entry count and total byte size.
//
// Content addressing is what makes the cache safe to consult blindly: two
// requests share a key only when they denote the same optimization
// problem in canonical form, so a hit can be served without comparing
// inputs. The cache itself is value-agnostic — it stores opaque bytes —
// and safe for concurrent use.
package rescache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Entries   int   // resident entries
	Bytes     int64 // resident key+value bytes
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64 // entries dropped to respect the bounds
}

// Cache is a bounded LRU keyed by content hash. The zero value is not
// usable; construct with New.
type Cache struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	bytes      int64
	hits       int64
	misses     int64
	puts       int64
	evictions  int64
}

type entry struct {
	key string
	val []byte
}

// New creates a cache bounded to maxEntries entries and maxBytes total
// key+value bytes. A bound of 0 (or negative) means "unbounded" on that
// axis; a value larger than maxBytes on its own is simply not stored.
func New(maxBytes int64, maxEntries int) *Cache {
	return &Cache{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Get returns the value stored under key and marks it most recently used.
// The returned slice is the cache's copy: callers must treat it as
// read-only.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val under key (copying val), replacing any previous value,
// and evicts least-recently-used entries until both bounds hold. A value
// that alone exceeds the byte bound is not stored (and evicts nothing).
func (c *Cache) Put(key string, val []byte) {
	size := int64(len(key) + len(val))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.puts++
	cp := append([]byte(nil), val...)
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(cp)) - int64(len(e.val))
		e.val = cp
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: cp})
		c.bytes += size
	}
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.evictOldest()
	}
}

// evictOldest drops the LRU entry. Caller holds c.mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= int64(len(e.key) + len(e.val))
	c.evictions++
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys returns the resident keys from most to least recently used —
// primarily for tests asserting eviction order.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Puts:      c.puts,
		Evictions: c.evictions,
	}
}
