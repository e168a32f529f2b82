package rescache

import (
	"sync/atomic"

	"wavemin/internal/faultinject"
)

// Backing is the persistence tier a Tiered cache spills to. It is
// deliberately a two-method interface so rescache stays decoupled from
// any particular store; castore.Store satisfies it. Get must return
// (nil, false) — never wrong bytes — for entries it cannot verify.
type Backing interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
}

// PeerTier is the remote read-through tier of a sharded fleet: a lookup
// against whichever coordinator owns the key's shard. Unlike Backing it
// returns an error, because a peer can be down in a way a local disk
// cannot — and the Tiered contract is that every peer error DEGRADES TO
// A LOCAL MISS: the caller solves locally instead of failing the
// request. A peer tier is read-only by design; writes stay on the
// owning shard, so a Tiered cache can never perform a wrong-shard write
// through this interface.
type PeerTier interface {
	// PeerGet returns (bytes, true, nil) on a peer hit, (nil, false, nil)
	// on an authoritative miss, and (nil, false, err) when the owner
	// could not be consulted.
	PeerGet(key string) ([]byte, bool, error)
}

// TieredStats extends the in-memory counters with the disk tier's view.
type TieredStats struct {
	Mem       Stats
	DiskHits  int64 // memory misses served from the backing store
	DiskMiss  int64 // misses in both tiers
	WriteErrs int64 // backing Put failures (entry stays memory-only)
	PeerHits  int64 // local misses served by the owning peer
	PeerMiss  int64 // misses the owning peer confirmed
	PeerErrs  int64 // peer lookups that failed (degraded to local miss)
}

// Tiered is a read-through cache of up to three levels: an in-memory LRU
// in front of a persistent backing store, optionally in front of a fleet
// peer tier (SetPeer). Reads consult memory first and promote disk hits;
// writes go through to disk before landing in memory, so anything a
// caller has been told is cached survives a crash (modulo backing-store
// sync policy). The peer tier is read-only — peer hits promote into
// memory, never disk, and peer errors degrade to misses. Safe for
// concurrent use.
type Tiered struct {
	mem  *Cache
	disk Backing
	peer atomic.Pointer[peerHolder] // set at most once, after construction

	diskHits  atomic.Int64
	diskMiss  atomic.Int64
	writeErrs atomic.Int64
	peerHits  atomic.Int64
	peerMiss  atomic.Int64
	peerErrs  atomic.Int64
}

// peerHolder wraps the interface so a nil PeerTier and an unset pointer
// are distinguishable under atomic loads.
type peerHolder struct{ p PeerTier }

// NewTiered layers mem over disk. A nil disk degrades to memory-only
// behavior, so callers can construct one unconditionally and only wire
// a backing store when durability is configured.
func NewTiered(mem *Cache, disk Backing) *Tiered {
	return &Tiered{mem: mem, disk: disk}
}

// SetPeer attaches the fleet read-through tier: local misses (memory and
// disk both) additionally consult the key's owning peer. Peer hits are
// promoted into the MEMORY tier only — never the local disk, which
// belongs to this node's own shards — and every peer failure degrades to
// a local miss, so a dead peer costs a re-solve, never an error.
func (t *Tiered) SetPeer(p PeerTier) {
	if p != nil {
		t.peer.Store(&peerHolder{p: p})
	}
}

// Get returns the cached value for key, promoting a disk hit into the
// memory tier so repeated reads stay cheap. With a peer tier attached, a
// local miss is checked against the key's owning peer before being
// reported as a miss.
func (t *Tiered) Get(key string) ([]byte, bool) {
	if val, ok := t.GetLocal(key); ok {
		return val, true
	}
	ph := t.peer.Load()
	if ph == nil {
		return nil, false
	}
	if err := faultinject.ErrAt(SitePeerGet); err != nil {
		t.peerErrs.Add(1)
		return nil, false
	}
	val, ok, err := ph.p.PeerGet(key)
	if err != nil {
		// The peer-degradation contract: an unreachable owner is a miss,
		// not a failure — the caller falls back to a local solve.
		t.peerErrs.Add(1)
		return nil, false
	}
	if !ok {
		t.peerMiss.Add(1)
		return nil, false
	}
	t.peerHits.Add(1)
	// Memory-only promotion: this node does not own the key, so its
	// durable tier must not adopt it (wrong-shard write).
	t.mem.Put(key, val)
	return val, true
}

// GetLocal consults only this node's own tiers (memory, then disk),
// promoting disk hits into memory. It is the lookup a node uses to
// answer a PEER's read-through request: consulting its own peer tier
// there would bounce a miss around the fleet.
func (t *Tiered) GetLocal(key string) ([]byte, bool) {
	if val, ok := t.mem.Get(key); ok {
		return val, true
	}
	if t.disk == nil {
		return nil, false
	}
	val, ok := t.disk.Get(key)
	if !ok {
		t.diskMiss.Add(1)
		return nil, false
	}
	t.diskHits.Add(1)
	t.mem.Put(key, val)
	return val, true
}

// SitePeerGet is the fault-injection site consulted before every peer
// lookup; an injected error exercises the degrade-to-miss contract
// without a network fault.
const SitePeerGet = "rescache.peer.get"

// Put stores val in both tiers, disk first: by the time a caller can
// observe the entry, it is already on its way to stable storage. A
// backing-store failure is counted but does not block the memory tier —
// serving keeps working with durability degraded.
func (t *Tiered) Put(key string, val []byte) {
	if t.disk != nil {
		if err := t.disk.Put(key, val); err != nil {
			t.writeErrs.Add(1)
		}
	}
	t.mem.Put(key, val)
}

// PutLocal stores val in the memory tier only. The durable serving path
// uses it when the bytes already reached the backing store through a
// stricter channel (persist-before-ack), so writing disk again here
// would be redundant.
func (t *Tiered) PutLocal(key string, val []byte) {
	t.mem.Put(key, val)
}

// LocalKeys snapshots the memory tier's resident keys — the hot set a
// bucket handoff drains to a new owner. The durable tier is deliberately
// not enumerated: handoff copies what is warm, and anything colder is
// re-solved by the new owner (content addressing makes every copy
// identical, so a partial drain costs hit rate, never correctness).
func (t *Tiered) LocalKeys() []string {
	return t.mem.Keys()
}

// Stats snapshots all tiers' counters.
func (t *Tiered) Stats() TieredStats {
	return TieredStats{
		Mem:       t.mem.Stats(),
		DiskHits:  t.diskHits.Load(),
		DiskMiss:  t.diskMiss.Load(),
		WriteErrs: t.writeErrs.Load(),
		PeerHits:  t.peerHits.Load(),
		PeerMiss:  t.peerMiss.Load(),
		PeerErrs:  t.peerErrs.Load(),
	}
}
