package rescache

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
)

type fakeBacking struct {
	mu     sync.Mutex
	m      map[string][]byte
	puts   int
	gets   int
	putErr error
}

func newFakeBacking() *fakeBacking { return &fakeBacking{m: make(map[string][]byte)} }

func (f *fakeBacking) Get(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	v, ok := f.m[key]
	return v, ok
}

func (f *fakeBacking) Put(key string, val []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.putErr != nil {
		return f.putErr
	}
	f.m[key] = append([]byte(nil), val...)
	return nil
}

func TestTieredWriteThroughAndReadThrough(t *testing.T) {
	disk := newFakeBacking()
	tc := NewTiered(New(0, 0), disk)

	tc.Put("aa", []byte("alpha"))
	if _, ok := disk.m["aa"]; !ok {
		t.Fatal("put did not write through to disk")
	}
	if v, ok := tc.Get("aa"); !ok || !bytes.Equal(v, []byte("alpha")) {
		t.Fatal("memory tier miss after put")
	}
	if st := tc.Stats(); st.DiskHits != 0 {
		t.Fatalf("memory hit counted as disk hit: %+v", st)
	}

	// An entry only on disk (e.g. after restart) is promoted on read.
	disk.m["bb"] = []byte("bravo")
	v, ok := tc.Get("bb")
	if !ok || !bytes.Equal(v, []byte("bravo")) {
		t.Fatal("read-through miss")
	}
	if st := tc.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hit not counted: %+v", st)
	}
	gets := disk.gets
	if v, ok := tc.Get("bb"); !ok || !bytes.Equal(v, []byte("bravo")) {
		t.Fatal("promoted entry lost")
	}
	if disk.gets != gets {
		t.Fatal("second read hit disk despite promotion")
	}

	if _, ok := tc.Get("absent"); ok {
		t.Fatal("hit for absent key")
	}
	if st := tc.Stats(); st.DiskMiss != 1 {
		t.Fatalf("double miss not counted: %+v", st)
	}
}

func TestTieredMemoryEvictionFallsBackToDisk(t *testing.T) {
	disk := newFakeBacking()
	tc := NewTiered(New(0, 1), disk) // memory holds a single entry

	tc.Put("aa", []byte("alpha"))
	tc.Put("bb", []byte("bravo")) // evicts aa from memory

	if keys := tc.LocalKeys(); !slices.Equal(keys, []string{"bb"}) {
		t.Fatalf("memory tier holds %v, want only bb", keys)
	}
	if v, ok := tc.Get("aa"); !ok || !bytes.Equal(v, []byte("alpha")) {
		t.Fatal("evicted entry not recovered from disk")
	}
}

func TestTieredDiskWriteFailureDegradesGracefully(t *testing.T) {
	disk := newFakeBacking()
	disk.putErr = errors.New("disk full")
	tc := NewTiered(New(0, 0), disk)

	tc.Put("aa", []byte("alpha"))
	if v, ok := tc.Get("aa"); !ok || !bytes.Equal(v, []byte("alpha")) {
		t.Fatal("memory tier should still serve after disk write failure")
	}
	if st := tc.Stats(); st.WriteErrs != 1 {
		t.Fatalf("write error not counted: %+v", st)
	}
	if len(disk.m) != 0 {
		t.Fatal("failed put left bytes on disk")
	}
}

func TestTieredNilBackingIsMemoryOnly(t *testing.T) {
	tc := NewTiered(New(0, 0), nil)
	tc.Put("aa", []byte("alpha"))
	if v, ok := tc.Get("aa"); !ok || !bytes.Equal(v, []byte("alpha")) {
		t.Fatal("memory-only tiered cache broken")
	}
	if _, ok := tc.Get("bb"); ok {
		t.Fatal("phantom hit with nil backing")
	}
	if keys := tc.LocalKeys(); !slices.Equal(keys, []string{"aa"}) {
		t.Fatalf("nil backing: resident keys %v, want only aa", keys)
	}
}
