package castore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wavemin/internal/faultinject"
	"wavemin/internal/wal"
)

func keyOf(val []byte) string {
	sum := sha256.Sum256(val)
	return hex.EncodeToString(sum[:])
}

func mustPut(t *testing.T, s *Store, val []byte) string {
	t.Helper()
	key := keyOf(val)
	if err := s.Put(key, val); err != nil {
		t.Fatalf("Put(%s): %v", key[:8], err)
	}
	return key
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := []byte(`{"result": "bytes", "padding": "xyzzy"}`)
	key := mustPut(t, s, val)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get: ok=%v val=%q", ok, got)
	}
	if _, ok := s.Get(keyOf([]byte("absent"))); ok {
		t.Fatal("hit for a key never stored")
	}
	if err := s.Put("../../../etc/passwd", []byte("nope")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("traversal key accepted: %v", err)
	}
	if err := s.Put("ABCDEF0123456789", []byte("nope")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("uppercase key accepted: %v", err)
	}
}

func TestEntriesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 20; i++ {
		v := []byte(fmt.Sprintf("result-%03d-%s", i, string(make([]byte, i*7))))
		vals[mustPut(t, s, v)] = v
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(vals) {
		t.Fatalf("reopened store has %d entries, want %d", s2.Len(), len(vals))
	}
	for key, want := range vals {
		got, ok := s2.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("entry %s lost across reopen", key[:8])
		}
	}
}

func TestLRURecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustPut(t, s, []byte("value-a"))
	b := mustPut(t, s, []byte("value-b"))
	c := mustPut(t, s, []byte("value-c"))
	// Touch a: order becomes a, c, b (most→least recent).
	if _, ok := s.Get(a); !ok {
		t.Fatal("miss on a")
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	keys := s2.Keys()
	want := []string{a, c, b}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("recency order lost across reopen: got %v want %v", short(keys), short(want))
		}
	}
}

func short(keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k[:8]
	}
	return out
}

func TestByteBudgetEvictionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 10 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 30; i++ {
		v := make([]byte, 1024)
		for j := range v {
			v[j] = byte(i)
		}
		keys = append(keys, mustPut(t, s, v))
	}
	st := s.Stats()
	if st.Bytes > 10<<10 {
		t.Fatalf("budget violated: %d bytes resident", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under a tight budget")
	}
	// Oldest keys are gone, newest survive.
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, ok := s.Get(keys[len(keys)-1]); !ok {
		t.Fatal("newest entry should be resident")
	}
	s.Close()

	// Reopen with a tighter budget: eviction applies at open.
	s2, err := Open(dir, Options{MaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Bytes > 4<<10 {
		t.Fatalf("reopen budget violated: %d bytes", st.Bytes)
	}
	if _, ok := s2.Get(keys[len(keys)-1]); !ok {
		t.Fatal("most recent entry evicted before older ones")
	}
}

// TestCorruptEntryQuarantinedNotServed is the core integrity property:
// however an entry file rots (bit flip, truncation, wrong magic, bad
// length), Get must report a miss and move the file to quarantine — and
// a subsequent Put under the same key (the "re-solve") must heal it.
func TestCorruptEntryQuarantinedNotServed(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bit-flip-payload", func(b []byte) []byte { b[entryHeader+1] ^= 0x20; return b }},
		{"bit-flip-header", func(b []byte) []byte { b[9] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"emptied", func(b []byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"appended-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			val := []byte("the one true result, bit for bit")
			key := mustPut(t, s, val)

			path := s.objPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}

			if got, ok := s.Get(key); ok {
				t.Fatalf("served corrupt entry: %q", got)
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Fatalf("quarantined=%d, want 1", st.Quarantined)
			}
			quar, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
			if len(quar) != 1 {
				t.Fatalf("quarantine dir has %d files, want 1", len(quar))
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt file still in the object tree")
			}

			// Re-solve heals: the same key stores and serves cleanly.
			mustPut(t, s, val)
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, val) {
				t.Fatalf("store did not heal after re-put: ok=%v", ok)
			}
		})
	}
}

// TestQuarantinePropertyRandomized drives random corruption over a
// populated store: every corrupted entry must read as a miss (never
// wrong bytes), every clean entry must read back exactly, and re-puts
// must heal — regardless of which subset rots.
func TestQuarantinePropertyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 40
	vals := make(map[string][]byte, n)
	var keys []string
	for i := 0; i < n; i++ {
		v := make([]byte, 16+rng.Intn(512))
		rng.Read(v)
		k := keyOf(v)
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		vals[k] = v
		keys = append(keys, k)
	}

	corrupted := make(map[string]bool)
	for _, k := range keys {
		if rng.Intn(3) != 0 {
			continue
		}
		corrupted[k] = true
		path := s.objPath(k)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(3) {
		case 0:
			raw[rng.Intn(len(raw))] ^= 1 << uint(rng.Intn(8))
		case 1:
			raw = raw[:rng.Intn(len(raw))]
		case 2:
			raw = append(raw, byte(rng.Intn(256)))
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	quarantined := 0
	for _, k := range keys {
		got, ok := s.Get(k)
		if corrupted[k] {
			if ok {
				// A bit flip could, in principle, keep the CRC valid — at
				// 2^-32 odds. With a fixed seed this must not happen.
				t.Fatalf("corrupted entry %s served", k[:8])
			}
			quarantined++
			// Re-solve path: the caller recomputes and re-puts.
			if err := s.Put(k, vals[k]); err != nil {
				t.Fatal(err)
			}
			healed, ok := s.Get(k)
			if !ok || !bytes.Equal(healed, vals[k]) {
				t.Fatalf("entry %s did not heal", k[:8])
			}
		} else if !ok || !bytes.Equal(got, vals[k]) {
			t.Fatalf("clean entry %s misread", k[:8])
		}
	}
	if st := s.Stats(); st.Quarantined != int64(quarantined) {
		t.Fatalf("quarantined counter %d, want %d", st.Quarantined, quarantined)
	}
}

func TestOrphanAdoptionAndStrayTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := mustPut(t, s, []byte("indexed"))
	// The entry files are the store's only record, so a crash leaves
	// exactly what Close does.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a put from another writer, or one that renamed its file
	// and died: drop a well-formed entry file straight into the tree.
	orphanVal := []byte("orphaned result bytes")
	orphanKey := keyOf(orphanVal)
	shard := filepath.Join(dir, "objects", orphanKey[0:2], orphanKey[2:4])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, orphanKey+".obj"), frameEntry(orphanVal), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a stray tmp file from a put that died mid-write.
	stray := filepath.Join(shard, ".put-12345")
	if err := os.WriteFile(stray, []byte("half a"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(orphanKey)
	if !ok || !bytes.Equal(got, orphanVal) {
		t.Fatal("orphan entry not adopted")
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("indexed entry lost")
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray tmp file survived reopen")
	}
}

func TestFaultInjectedPutNeverLeavesTornEntry(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	boom := errors.New("injected rename failure")
	val := []byte("must never half-exist")
	key := keyOf(val)
	for _, site := range []string{
		faultinject.SiteCastoreWrite,
		faultinject.SiteCastoreSync,
		faultinject.SiteCastoreRename,
	} {
		faultinject.SetErr(site, func() error { return boom })
		if err := s.Put(key, val); !errors.Is(err, boom) {
			t.Fatalf("site %s: Put err = %v, want injected", site, err)
		}
		faultinject.Reset()
		if _, ok := s.Get(key); ok {
			t.Fatalf("site %s: entry visible after failed put", site)
		}
	}
	// After the faults clear, the put succeeds and serves.
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatal("entry unreadable after recovery")
	}
}

// TestRecencyPropertyAcrossReopen drives seeded random sequences of
// puts, rewrites and hits under a byte budget tight enough to evict, and
// requires the LRU order to come back exactly on reopen, twice in a row.
// Recency lives in the entry files' modification times, so a crash
// leaves exactly what Close does.
func TestRecencyPropertyAcrossReopen(t *testing.T) {
	const budget = 4 << 10
	var evictions int64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		var keys []string
		run := func(s *Store) {
			for op := 0; op < 40; op++ {
				switch r := rng.Intn(10); {
				case r < 5 || len(keys) == 0: // a new result
					v := make([]byte, 200+rng.Intn(600))
					rng.Read(v)
					keys = append(keys, mustPut(t, s, v))
				case r < 6: // the same key rewritten (a re-solve)
					k := keys[rng.Intn(len(keys))]
					if v, ok := s.Get(k); ok {
						if err := s.Put(k, v); err != nil {
							t.Fatal(err)
						}
					}
				default: // a lookup: a hit moves the key to the front
					s.Get(keys[rng.Intn(len(keys))])
				}
			}
		}
		s, err := Open(dir, Options{MaxBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		for round := range 2 {
			run(s)
			evictions += s.Stats().Evictions
			want := s.Keys()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir, Options{MaxBytes: budget}); err != nil {
				t.Fatal(err)
			}
			if got := s.Keys(); !slices.Equal(got, want) {
				t.Fatalf("seed %d, reopen %d: order after reopen %v, want %v", seed, round+1, short(got), short(want))
			}
		}
		s.Close()
	}
	if evictions == 0 {
		t.Fatal("no sequence evicted: the budget does not bite")
	}
}

// TestOpenDropsOldIndexJournal opens a store written by a version that
// kept recency in an index journal under index/: every entry file is
// served — the journal's view of the contents is ignored, whatever it
// says — and the journal directory is gone afterwards.
func TestOpenDropsOldIndexJournal(t *testing.T) {
	dir := t.TempDir()
	vals := map[string][]byte{}
	for i := 0; i < 6; i++ {
		v := []byte(fmt.Sprintf("result bytes %d", i))
		k := keyOf(v)
		shard := filepath.Join(dir, "objects", k[0:2], k[2:4])
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, k+".obj"), frameEntry(v), 0o644); err != nil {
			t.Fatal(err)
		}
		vals[k] = v
	}
	// The old journal: a checkpoint naming a key with no file, then put,
	// touch and evict records that cover only some of the entries.
	w, _, err := wal.Open(filepath.Join(dir, "index"), wal.Options{Sync: wal.SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint([]byte(`[{"k":"` + keyOf([]byte("gone")) + `","n":40}]`)); err != nil {
		t.Fatal(err)
	}
	i := 0
	for k := range vals {
		rec := fmt.Sprintf(`{"op":%q,"k":%q,"n":%d}`, []string{"p", "t", "e"}[i%3], k, len(vals[k])+entryHeader)
		if _, err := w.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(vals) {
		t.Fatalf("opened %d entries, want %d", s.Len(), len(vals))
	}
	for k, want := range vals {
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
			t.Fatalf("entry %s not served after upgrade", k[:8])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "index")); !os.IsNotExist(err) {
		t.Fatalf("old index journal left behind: %v", err)
	}
}
