// Package zonecache is the per-zone MOSP solution format behind ECO mode.
//
// The whole-design result cache (Design.CacheKey → result bytes) can only
// replay a request that is byte-for-byte the same problem. Real clock-tree
// work arrives as deltas — one leaf resized, one zone nudged — and the
// paper's Observation 4 (per-leaf delay independence, additive noise)
// means a delta invalidates only the zones it touches. Each (skew
// interval × placement zone) solver outcome is therefore a Solution under
// a canonical content key (internal/polarity computes the keys, versioned
// by KeyFormat), so an incremental re-optimization replays every
// unchanged zone and pays the solver only for the delta.
//
// This package owns the Solution encoding and the per-run Session: the
// seeded base solutions a run replays, and the record of every solution
// it replayed or produced. Storage is not its concern — a zone solution
// is just another content-addressed blob, so the service keeps them in a
// plain rescache.Tiered (durable over its own castore under
// DataDir/zones), seeds each delta run from the base job's recorded
// keys, and lands every clean run's record back into that tier.
// Replayed solutions are bitwise-safe by construction: the key covers
// every input the solver sees, and the solver itself is deterministic,
// so key equality implies the cold solve would have produced exactly the
// recorded picks.
package zonecache

import (
	"encoding/json"
	"fmt"
	"sync"

	"wavemin/internal/rescache"
)

// KeyFormat versions the zone key encoding. Bump it whenever the
// canonical form of any section of the zone key changes, so entries
// written under an older encoding can never alias a new instance.
const KeyFormat = "wavemin-zonekey-v1"

// solutionVersion versions the stored value encoding independently of the
// key: a decode of a foreign or stale blob fails closed into a cache miss.
// Older version 1 blobs also carry "zone", "expanded" and "frontier"
// fields, which fed the deleted warm-start hints; Decode ignores them, so
// stores written with them still replay.
const solutionVersion = 1

// Solution is one (interval, zone) solver outcome: the per-leaf candidate
// picks in the zone's canonical leaf order.
type Solution struct {
	V     int     `json:"v"`
	Picks []int   `json:"picks"` // candidate index per leaf, canonical leaf order
	Peak  float64 `json:"peak"`  // the instance's peak estimate (merge tie-break input)
}

// Encode renders a solution as its stored bytes.
func (s *Solution) Encode() []byte {
	s.V = solutionVersion
	b, err := json.Marshal(s)
	if err != nil {
		// Solution has no unmarshalable fields; this cannot happen.
		panic(fmt.Sprintf("zonecache: encode: %v", err))
	}
	return b
}

// Decode parses stored bytes, failing closed (nil, error → cache miss) on
// any malformed or version-skewed blob.
func Decode(b []byte) (*Solution, error) {
	var s Solution
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("zonecache: decode: %w", err)
	}
	if s.V != solutionVersion {
		return nil, fmt.Errorf("zonecache: version %d, want %d", s.V, solutionVersion)
	}
	for _, p := range s.Picks {
		if p < 0 {
			return nil, fmt.Errorf("zonecache: negative pick %d", p)
		}
	}
	return &s, nil
}

// New builds a memory-only zone-solution tier bounded by bytes and entry
// count.
func New(maxBytes int64, maxEntries int) *rescache.Tiered {
	return rescache.NewTiered(rescache.New(maxBytes, maxEntries), nil)
}

// Session is one optimization run's view of the zone solutions: a seeded
// base-solution map (a delta job's spec ships it, so local and remote
// executors replay alike) and a record of every solution the run touched
// so the job registry can chain deltas off it.
//
// A nil *Session is valid and always misses, so solver code can thread it
// unconditionally. All methods are safe for concurrent use — the solver
// fan-out looks up and stores from its worker pool.
type Session struct {
	mu   sync.Mutex
	seed map[string]seedEntry // base solutions by zone key, decoded once
	used map[string][]byte    // every solution this run replayed or produced
}

// seedEntry keeps a seed in both forms: the stored bytes (what Used
// re-exports) and the decoded solution (what Lookup returns). Decoding
// once at Seed time keeps the hot replay path allocation-free — a delta
// solve replays tens of thousands of seeds.
type seedEntry struct {
	raw []byte
	sol *Solution
}

// NewSession starts an empty run view.
func NewSession() *Session {
	return &Session{seed: map[string]seedEntry{}, used: map[string][]byte{}}
}

// Seed loads base-run solutions (zone key → encoded Solution). Malformed
// entries are dropped: a seed is an optimization, never a correctness
// input.
func (s *Session) Seed(zones map[string][]byte) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, raw := range zones {
		sol, err := Decode(raw)
		if err != nil {
			continue
		}
		s.seed[key] = seedEntry{raw: append([]byte(nil), raw...), sol: sol}
	}
}

// Lookup returns the seeded solution stored under key and records the
// use. The returned Solution is shared between callers and must not be
// mutated — the replay path only reads it.
func (s *Session) Lookup(key string) (*Solution, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.seed[key]
	if !ok {
		return nil, false
	}
	// Seed bytes are session-owned; record the reference, skip the copy
	// and the re-decode.
	s.used[key] = e.raw
	return e.sol, true
}

// Store records a freshly solved instance.
func (s *Session) Store(key string, sol *Solution) {
	if s == nil {
		return
	}
	raw := sol.Encode()
	s.mu.Lock()
	s.used[key] = raw
	s.mu.Unlock()
}

// Used snapshots every solution this run touched, keyed by zone key — the
// map a job registry records and a dispatched delta job ships to workers.
func (s *Session) Used() map[string][]byte {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.used))
	for k, v := range s.used {
		out[k] = append([]byte(nil), v...)
	}
	return out
}
