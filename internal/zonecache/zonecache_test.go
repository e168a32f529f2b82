package zonecache

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func sol(picks []int) *Solution {
	return &Solution{Picks: picks, Peak: 1.5}
}

func TestSolutionRoundTrip(t *testing.T) {
	want := sol([]int{0, 2, 1})
	got, err := Decode(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

// TestDecodeFailsClosed: any blob that is not exactly a current-version
// solution must come back (nil, error) — a cache miss, never a bad replay.
func TestDecodeFailsClosed(t *testing.T) {
	skewed := sol([]int{1}).Encode()
	skewed = bytes.Replace(skewed, []byte(`"v":1`), []byte(`"v":2`), 1)
	for name, blob := range map[string][]byte{
		"empty":        nil,
		"garbage":      []byte("not json"),
		"wrongShape":   []byte(`[1,2,3]`),
		"versionSkew":  skewed,
		"negativePick": []byte(`{"v":1,"zone":[0,0],"picks":[-1]}`),
	} {
		if s, err := Decode(blob); err == nil || s != nil {
			t.Errorf("%s: Decode = (%v, %v), want fail-closed", name, s, err)
		}
	}
}

func TestEncodeStampsVersion(t *testing.T) {
	var m map[string]any
	if err := json.Unmarshal(sol(nil).Encode(), &m); err != nil {
		t.Fatal(err)
	}
	if m["v"] != float64(solutionVersion) {
		t.Fatalf("encoded version %v, want %d", m["v"], solutionVersion)
	}
}

func TestMemoryCache(t *testing.T) {
	c := New(1<<20, 16)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", []byte("v"))
	if got, ok := c.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Mem.Hits != 1 || st.Mem.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", st.Mem)
	}
}

func seedMap(t *testing.T, sols ...*Solution) map[string][]byte {
	t.Helper()
	m := make(map[string][]byte, len(sols))
	for i, s := range sols {
		m[string(rune('a'+i))] = s.Encode()
	}
	return m
}

func TestSessionSeedLookupUsed(t *testing.T) {
	s := NewSession()
	seeds := seedMap(t, sol([]int{0, 1}))
	seeds["bad"] = []byte("junk") // malformed seeds are dropped, not fatal
	s.Seed(seeds)

	if _, ok := s.Lookup("bad"); ok {
		t.Fatal("malformed seed was served")
	}
	got, ok := s.Lookup("a")
	if !ok || !reflect.DeepEqual(got.Picks, []int{0, 1}) {
		t.Fatalf("Lookup(a) = %+v, %v", got, ok)
	}
	fresh := sol([]int{4})
	s.Store("f", fresh)
	if _, ok := s.Lookup("f"); ok {
		t.Fatal("Lookup served a stored solution; only seeds replay")
	}

	used := s.Used()
	if len(used) != 2 {
		t.Fatalf("Used has %d entries, want 2 (replayed + stored): %v", len(used), used)
	}
	if _, ok := used["a"]; !ok {
		t.Fatal("replayed seed missing from Used")
	}
	if dec, err := Decode(used["f"]); err != nil || dec.Picks[0] != 4 {
		t.Fatalf("stored solution corrupt in Used: %+v, %v", dec, err)
	}
}

// TestSessionReplaysParentFormat: version-1 blobs written before the
// warm-start fields were dropped still carry "zone", "expanded" and
// "frontier".
// They must keep replaying — durable zone stores hold them — and Used must
// hand back their original bytes, not a re-encoding.
func TestSessionReplaysParentFormat(t *testing.T) {
	raw := []byte(`{"v":1,"zone":[1,2],"picks":[0,1],"peak":1.5,"expanded":40,"frontier":7}`)
	s := NewSession()
	s.Seed(map[string][]byte{"k": raw})
	got, ok := s.Lookup("k")
	if !ok || !reflect.DeepEqual(got.Picks, []int{0, 1}) {
		t.Fatalf("Lookup(k) = %+v, %v; want picks [0 1]", got, ok)
	}
	if used := s.Used(); !bytes.Equal(used["k"], raw) {
		t.Fatalf("Used()[k] = %s, want the seeded bytes %s", used["k"], raw)
	}
}

// TestNilSessionSafe: a nil *Session always misses and swallows writes,
// so non-ECO solver paths pay no branches.
func TestNilSessionSafe(t *testing.T) {
	var s *Session
	s.Seed(map[string][]byte{"k": nil})
	if _, ok := s.Lookup("k"); ok {
		t.Fatal("nil session hit")
	}
	s.Store("k", sol(nil))
	if u := s.Used(); u != nil {
		t.Fatalf("nil session Used = %v", u)
	}
}
