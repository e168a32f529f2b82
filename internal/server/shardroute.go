package server

// Shard routing: the layer that makes a fleet of wavemind coordinators
// behave as one logical service. Every node carries a LIVE versioned
// shard map (internal/shard); POST /v1/optimize hashes the request's
// canonical CacheKey, serves it locally when this node owns the key's
// shard, and otherwise forwards it — exactly one hop — to the owner.
// Job reads route by the shard ID baked into sharded job IDs. Cache
// lookups consult the owning peer read-through (rescache.PeerTier);
// peer failures degrade to local misses, never errors, and peer hits
// are promoted memory-only so a node's durable tier stays shard-pure.
//
// The map is no longer frozen at boot: nodes converge on the highest
// valid version the fleet has published (see gossip.go — anti-entropy
// pulls, version piggybacking, and the single shard.ShouldAdopt gate),
// and adjacent versions move at most one bucket, so a node that is one
// version behind misroutes at most one bucket's keys — and the receiver
// catches it by version header, never by a silent wrong-shard write.
//
// The forwarding protocol:
//
//   - X-Wavemin-Forwarded-From: <shard> marks a forwarded request. Its
//     presence means "never forward again" — a node that receives a
//     forwarded request it does not own answers 421 wrong_shard rather
//     than bouncing it onward, so routing loops are structurally
//     impossible (single hop, enforced by the receiver).
//   - X-Wavemin-Shard-Map-Version carries the sender's map version on
//     forwards, and — piggybacked by middleware — this node's version
//     on EVERY response. Version skew is no longer a terminal refusal:
//     a receiver that is behind fetches the sender's map and adopts it
//     before re-checking; a sender whose forward bounces 409 against a
//     newer receiver adopts the receiver's map and retries once. Only
//     when catch-up fails does the 409 shard_map_version reach the
//     client — the retryable signal that a rebalance is propagating.
//   - A dead owner degrades before it refuses: a cached read is served
//     from one of the bucket's replicas (the map's read-only copies,
//     kept warm by replication-on-write and bucket handoff), found by the
//     same owner-then-readers walk cache read-through takes (readHolders),
//     and only a key with no reachable copy gets the 503
//     shard_unavailable with Retry-After. Content addressing makes a
//     replica-served answer byte-identical to the owner's, so failover is
//     never-wrong, only possibly a miss.
//
// In-flight forwards are bounded (maxForwardInFlight), and a forward
// holds its slot through a dead owner's replica reads; past the bound,
// submissions are refused with 503 forward_backpressure so a slow peer
// cannot pile unbounded goroutines onto its neighbors.

import (
	"bytes"
	"context"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavemin/internal/httpjson"
	"wavemin/internal/obs"
	"wavemin/internal/rescache"
	"wavemin/internal/shard"
)

// Forwarding protocol headers.
const (
	headerForwardedFrom   = "X-Wavemin-Forwarded-From"
	headerShardMapVersion = "X-Wavemin-Shard-Map-Version"
	headerServedByShard   = "X-Wavemin-Served-By-Shard"
	// headerShardMap carries the sender's full encoded map on handoff
	// pushes, so the receiving owner can adopt the new version from the
	// push itself — the sender cannot serve it over GET /v1/shard/map
	// yet, because drain-before-flip pushes while still routing by the
	// old map.
	headerShardMap = "X-Wavemin-Shard-Map"
)

// maxPeerResponseBytes bounds what a forward or peer-cache read will
// accept back: generous enough for any result JSON (dispatch bounds its
// wire frames similarly), small enough that a misbehaving peer cannot
// exhaust memory.
const maxPeerResponseBytes = 64 << 20

// maxShardMapBytes bounds an encoded shard map on the wire (gossip
// responses, operator injection, piggybacked handoff headers). The
// largest legal map — 64k buckets of explicit assignments and replica
// sets — fits comfortably; anything bigger is hostile.
const maxShardMapBytes = 1 << 20

// maxForwardInFlight bounds concurrent forwards, a dead owner's replica
// reads included, and cache read-throughs to peers; past it, submissions
// get 503 forward_backpressure.
const maxForwardInFlight = 128

// peerTimeout bounds each peer call — forwarded requests, cache
// read-throughs, pushes and map pulls alike (http.Client.Timeout).
const peerTimeout = 15 * time.Second

// shardUnavailableRetrySeconds is the Retry-After hint on 503
// shard_unavailable: long enough for a restart to come back, short
// enough that clients re-probe a recovered owner promptly.
const shardUnavailableRetrySeconds = 1

// shardState is a sharded node's routing identity: which shard it is,
// the fleet's live shard map, and the peer base URLs indexed by shard
// ID. The map pointer is atomic — request paths load it lock-free —
// and adoptions serialize on adoptMu so drain-before-flip handoffs
// never interleave.
type shardState struct {
	id     int
	m      atomic.Pointer[shard.Map]
	peers  []string // base URL per shard; peers[id] unused (self)
	client *http.Client
	slots  chan struct{} // in-flight forward bound
	vars   *expvar.Map   // per-shard expvar map (obs.ExpvarShard)

	adoptMu  sync.Mutex  // serializes adoptMap (drain, then flip)
	mapGauge *expvar.Int // live map version (point-in-time, not a counter)

	// met holds the routing counters; metrics adds the map gauges.
	metMu sync.Mutex
	met   ShardMetrics
}

// Map returns the node's current shard map. The returned map is
// immutable — adoption stores a fresh clone — so callers may hold it
// across a whole request without locking.
func (sh *shardState) Map() *shard.Map { return sh.m.Load() }

// ShardMetrics is the routing layer's counter snapshot; all zero when
// the server runs unsharded.
type ShardMetrics struct {
	ShardID         int
	MapVersion      int // live map version (a gauge: rises on adoption)
	Shards          int
	ForwardsOut     int64 // requests this node forwarded to an owner
	ForwardsIn      int64 // forwarded requests this node served as owner
	WrongShard      int64 // forwarded requests refused (421 wrong_shard)
	Unavailable     int64 // forwards that found the owner unreachable (503)
	Backpressure    int64 // forwards refused at the in-flight bound (503)
	BadJobID        int64 // job reads refused for malformed sharded IDs
	MapVersionConf  int64 // version skew that survived catch-up (409)
	PeerServeHits   int64 // peer read-through lookups this node answered
	PeerServeMisses int64 // peer read-through lookups this node missed

	MapsAdopted     int64 // map versions adopted (gossip, piggyback, handoff, operator)
	MapsStale       int64 // candidate maps ignored as not-newer (normal during rebalance)
	MapsRejected    int64 // candidate maps refused (invalid or wrong-shape)
	GossipPulls     int64 // anti-entropy map pulls attempted
	GossipErrs      int64 // anti-entropy pulls that failed (peer down or hostile)
	HandoffSent     int64 // artifacts pushed to new owners during bucket handoff
	HandoffSendErrs int64 // handoff pushes that failed (new owner re-solves)
	HandoffRecv     int64 // handoff artifacts this node accepted as new owner
	ReplicaStored   int64 // pushed copies this node accepted as a bucket replica
	PushRefused     int64 // pushes refused as wrong-shard (421, nothing written)
	ReplicaPushes   int64 // clean results copied to bucket replicas on write
	ReplicaPushErrs int64 // replica copies that failed (failover degrades to miss)
	ReplicaHits     int64 // reads served by a replica copy instead of the owner
}

func newShardState(opts Options) (*shardState, error) {
	m := opts.ShardMap
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("server: shard map: %w", err)
	}
	if opts.ShardID < 0 || opts.ShardID >= m.Shards {
		return nil, fmt.Errorf("server: shard ID %d outside the map's 0..%d", opts.ShardID, m.Shards-1)
	}
	if len(opts.Peers) != m.Shards {
		return nil, fmt.Errorf("server: %d peer URLs for a %d-shard map (need one per shard, in shard order)", len(opts.Peers), m.Shards)
	}
	peers := make([]string, m.Shards)
	for i, p := range opts.Peers {
		if i == opts.ShardID {
			peers[i] = strings.TrimSuffix(p, "/") // unused, kept for symmetry
			continue
		}
		u, err := url.Parse(p)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("server: peer %d: %q is not an absolute base URL", i, p)
		}
		peers[i] = strings.TrimSuffix(p, "/")
	}
	sh := &shardState{
		id:     opts.ShardID,
		peers:  peers,
		client: &http.Client{Timeout: peerTimeout},
		slots:  make(chan struct{}, maxForwardInFlight),
		vars:   obs.ExpvarShard(opts.ShardID),
	}
	// The boot map is cloned so a caller mutating its copy (tests build
	// successors from the original) can never race the router.
	sh.m.Store(m.Clone())
	sh.mapGauge = obs.ExpvarGauge(sh.vars, "map_version")
	sh.mapGauge.Set(int64(m.Version))
	return sh, nil
}

// count increments one of sh.met's counters and mirrors it into the
// node's per-shard expvar map.
func (sh *shardState) count(field *int64, name string) {
	sh.metMu.Lock()
	*field++
	sh.metMu.Unlock()
	sh.vars.Add(name, 1)
}

func (sh *shardState) metrics() ShardMetrics {
	sh.metMu.Lock()
	out := sh.met
	sh.metMu.Unlock()
	m := sh.Map()
	out.ShardID = sh.id
	out.MapVersion = m.Version
	out.Shards = m.Shards
	return out
}

// forwardedFrom reports whether r is a peer-forwarded request and which
// shard sent it (-1 when the header value is not a shard number — the
// hop marker still counts; only the attribution is lost).
func forwardedFrom(r *http.Request) (from int, forwarded bool) {
	v := r.Header.Get(headerForwardedFrom)
	if v == "" {
		return -1, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return -1, true
	}
	return n, true
}

// agreeForwarded reconciles a forwarded request's map version with this
// node's and returns the map to route by. Equal versions agree
// immediately. A sender that is AHEAD is the convergence signal: this
// node fetches the sender's map and adopts it (through the
// shard.ShouldAdopt gate) before re-checking, so a lagging receiver
// catches up inside the request instead of bouncing 409s until gossip
// arrives. A sender that is behind — or a fetch that fails — leaves the
// skew standing: agreeForwarded answers the retryable 409 of the routing
// contract and returns nil. That response carries this node's version
// (piggyback middleware), so the SENDER then adopts and retries.
func (s *Server) agreeForwarded(w http.ResponseWriter, r *http.Request, from int) *shard.Map {
	sh := s.sh
	m := sh.Map()
	senderVer := r.Header.Get(headerShardMapVersion)
	v, err := strconv.Atoi(senderVer)
	if err == nil && v == m.Version {
		return m
	}
	if err == nil && v > m.Version && from >= 0 && from < len(sh.peers) && from != sh.id {
		if enc := r.Header.Get(headerShardMap); enc != "" && len(enc) <= maxShardMapBytes {
			// Handoff pushes carry the map inline: the sender is mid-adoption
			// and cannot serve the new version over GET yet.
			if cand, derr := shard.Decode(enc); derr == nil {
				_ = s.adoptMap(cand, "piggyback")
			} else {
				sh.count(&sh.met.MapsRejected, "maps_rejected")
			}
		} else {
			_ = s.fetchAndAdopt(from)
		}
		if m = sh.Map(); v == m.Version {
			return m
		}
	}
	sh.count(&sh.met.MapVersionConf, "map_version_conflicts")
	httpjson.WriteError(w, &httpjson.Error{Status: http.StatusConflict, Code: "shard_map_version",
		Message: fmt.Sprintf("shard map version skew: sender has %q, this node has %d; retry after the rebalance settles", senderVer, sh.Map().Version)})
	return nil
}

// routeOptimize decides where a decoded submission runs. It returns true
// when it fully handled the request (forwarded it, answered it from a
// replica, or refused it); false means this node owns the key and
// admission continues locally.
func (s *Server) routeOptimize(w http.ResponseWriter, r *http.Request, req *optimizeRequest, body []byte) bool {
	return s.route(w, r, http.MethodPost, "/v1/optimize", body,
		func(m *shard.Map) (int, error) { return m.ShardOf(req.key) }, req)
}

// routeJobRead decides where a GET /v1/jobs/... lands, by the shard ID
// encoded in the job ID. Legacy (unsharded) IDs resolve locally,
// forwarded or not. Returns true when the request was fully handled
// here. Job state — unlike cached results — is owner-local and has no
// replicas, so a dead owner here stays a 503.
func (s *Server) routeJobRead(w http.ResponseWriter, r *http.Request, id string) bool {
	sh := s.sh
	owner, _, sharded, err := shard.DecodeJobID(id)
	var bad string
	switch {
	case err != nil:
		bad = fmt.Sprintf("job ID %q: %v", id, err)
	case sharded && owner >= sh.Map().Shards:
		bad = fmt.Sprintf("job ID %q references shard %d beyond the %d-shard map", id, owner, sh.Map().Shards)
	}
	if bad != "" {
		sh.count(&sh.met.BadJobID, "bad_job_ids")
		httpjson.WriteError(w, &httpjson.Error{Status: http.StatusBadRequest, Code: "bad_job_id", Message: bad})
		return true
	}
	return sharded && s.route(w, r, http.MethodGet, r.URL.EscapedPath(), nil,
		func(*shard.Map) (int, error) { return owner, nil }, nil)
}

// route is the routing contract for submissions and job reads alike;
// ownerOf names the request's owner under a map. It returns true when it
// answered the request and false when this node serves it.
//
// A forwarded request is served here only when the sender's map version
// agrees with this node's (agreeForwarded) and ownerOf then names this
// node; otherwise it is refused — 421 wrong_shard, never re-forwarded.
//
// Any other request is relayed a single hop to its owner, whose answer
// is streamed back verbatim. A 409 from an owner whose map is newer is
// answered by adopting that map and routing once more. An owner that
// cannot be reached leaves a cacheable submission (req non-nil) to the
// key's other holders (readHolders), and is otherwise the 503
// shard_unavailable. One forward slot covers the whole relay, that
// fallback included, so a dead owner's replica reads count against
// maxForwardInFlight too.
func (s *Server) route(w http.ResponseWriter, r *http.Request, method, path string, body []byte, ownerOf func(*shard.Map) (int, error), req *optimizeRequest) bool {
	sh := s.sh
	if from, fwd := forwardedFrom(r); fwd {
		m := s.agreeForwarded(w, r, from)
		if m == nil {
			return true
		}
		owner, err := ownerOf(m)
		switch {
		case err != nil:
			httpjson.WriteError(w, httpjson.BadRequest("shard routing: %v", err))
		case owner != sh.id:
			sh.count(&sh.met.WrongShard, "wrong_shard_rejected")
			httpjson.WriteError(w, &httpjson.Error{Status: http.StatusMisdirectedRequest, Code: "wrong_shard",
				Message: fmt.Sprintf("key belongs to shard %d; this node is shard %d and forwarded requests are never re-forwarded", owner, sh.id)})
		default:
			if req != nil {
				sh.count(&sh.met.ForwardsIn, "forwards_in")
				req.forwardedFrom = from
			}
			return false
		}
		return true
	}
	held := false
	defer func() {
		if held {
			<-sh.slots
		}
	}()
	for retry := true; ; retry = false {
		owner, err := ownerOf(sh.Map())
		if err != nil {
			// CacheKey always yields a routable 64-hex key, so this is
			// unreachable in practice — but routing must degrade to a 4xx.
			httpjson.WriteError(w, httpjson.BadRequest("shard routing: %v", err))
			return true
		}
		if owner == sh.id {
			return false
		}
		if !held {
			select {
			case sh.slots <- struct{}{}:
				held = true
			default:
				sh.count(&sh.met.Backpressure, "forward_backpressure")
				httpjson.WriteError(w, &httpjson.Error{Status: http.StatusServiceUnavailable, Code: "forward_backpressure", RetryAfter: 1,
					Message: fmt.Sprintf("too many forwards to peers in flight (bound %d); retry shortly", cap(sh.slots))})
				return true
			}
		}
		sh.count(&sh.met.ForwardsOut, "forwards_out")
		resp, respBody, err := sh.roundTrip(r.Context(), owner, method, path, body, sh.Map(), maxPeerResponseBytes)
		if err != nil {
			if req != nil && !req.noCache {
				if blob, ok, _ := sh.readHolders(req.key, "/v1/shard/cache/", owner, s.cache, false); ok {
					s.count(&s.met.Submitted, "server_jobs_submitted", 1)
					s.serveCacheHit(w, req, blob)
					return true
				}
			}
			sh.count(&sh.met.Unavailable, "shard_unavailable")
			httpjson.WriteError(w, &httpjson.Error{Status: http.StatusServiceUnavailable, Code: "shard_unavailable",
				Message: fmt.Sprintf("shard %d owner unreachable: %v", owner, err), RetryAfter: shardUnavailableRetrySeconds})
			return true
		}
		if retry && resp.StatusCode == http.StatusConflict {
			if pv, perr := strconv.Atoi(resp.Header.Get(headerShardMapVersion)); perr == nil && pv > sh.Map().Version && s.fetchAndAdopt(owner) == nil {
				continue
			}
		}
		for _, h := range []string{"Content-Type", "Retry-After"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set(headerServedByShard, strconv.Itoa(owner))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(respBody)
		return true
	}
}

// roundTrip is every call this node makes to a peer: method path on
// shard target, marked as forwarded from this node under m's version. A
// PUT is a push and carries m inline as well, so the receiver can adopt
// a map the sender cannot serve yet. It returns the response (its body
// closed) with at most limit body bytes; the client's peerTimeout bounds
// the whole exchange.
func (sh *shardState) roundTrip(ctx context.Context, target int, method, path string, body []byte, m *shard.Map, limit int64) (*http.Response, []byte, error) {
	if target < 0 || target >= len(sh.peers) || target == sh.id {
		return nil, nil, fmt.Errorf("server: no peer %d", target)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.peers[target]+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set(headerForwardedFrom, strconv.Itoa(sh.id))
	req.Header.Set(headerShardMapVersion, strconv.Itoa(m.Version))
	switch method {
	case http.MethodPost: // a relayed submission
		req.Header.Set("Content-Type", "application/json")
	case http.MethodPut:
		req.Header.Set(headerShardMap, m.Encode())
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := sh.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	return resp, respBody, err
}

// recordForwardHop emits the forwarded-hop span into a job's trace, so a
// cross-node submission shows where it entered the fleet.
func (s *Server) recordForwardHop(tr *obs.Trace, req *optimizeRequest) {
	if tr == nil || s.sh == nil || req.forwardedFrom < 0 {
		return
	}
	sp := tr.Start("shard.forward")
	sp.SetAttr("from_shard", strconv.Itoa(req.forwardedFrom))
	sp.SetAttr("to_shard", strconv.Itoa(s.sh.id))
	sp.End()
}

// --- gossip / peer-serving endpoints --------------------------------------

// handleShardMap is the fleet's health/gossip endpoint: which shard this
// node is, which map version it routes by, and the peer list it uses.
// Nodes pull here on the anti-entropy tick (and after a 409) to
// converge; operators compare versions here to watch a rebalance settle.
func (s *Server) handleShardMap(w http.ResponseWriter, r *http.Request) {
	sh := s.sh
	m := sh.Map()
	httpjson.Write(w, http.StatusOK, map[string]any{
		"shardId":    sh.id,
		"mapVersion": m.Version,
		"shards":     m.Shards,
		"prefixBits": m.PrefixBits,
		"map":        m.Encode(),
		"peers":      sh.peers,
	})
}

// validCacheKey reports whether key has the only shape the caches store:
// a 64-char lowercase-hex sha256 digest.
func validCacheKey(key string) bool {
	if len(key) != 64 {
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

// handleShardLookup answers a peer's read-through lookup against the
// LOCAL levels of t — the result tier or the zone tier — only
// (consulting t's own peer level here would bounce misses around the
// fleet). 200 + bytes on hit, structured 404 on miss, 400 on a malformed
// key. A nil t (the zone tier of an ECO-off node) always misses.
func (s *Server) handleShardLookup(t *rescache.Tiered) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sh := s.sh
		key := r.PathValue("key")
		if !validCacheKey(key) {
			httpjson.WriteError(w, &httpjson.Error{Status: http.StatusBadRequest, Code: "bad_key",
				Message: "cache keys are 64-character lowercase-hex digests"})
			return
		}
		var val []byte
		ok := false
		if t != nil {
			val, ok = t.GetLocal(key)
		}
		if !ok {
			sh.count(&sh.met.PeerServeMisses, "peer_serve_misses")
			httpjson.WriteError(w, &httpjson.Error{Status: http.StatusNotFound, Code: "cache_miss",
				Message: "key not cached on this node"})
			return
		}
		sh.count(&sh.met.PeerServeHits, "peer_serve_hits")
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(headerServedByShard, strconv.Itoa(sh.id))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(val)
	}
}

// fetchCached performs one peer cache lookup against target's local
// tiers. Callers manage forward slots; this only does the wire work.
func (sh *shardState) fetchCached(target int, path, key string) ([]byte, bool, error) {
	resp, val, err := sh.roundTrip(context.Background(), target, http.MethodGet, path+key, nil, sh.Map(), maxPeerResponseBytes)
	if err != nil {
		return nil, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		sh.vars.Add("peer_fetch_hits", 1)
		return val, true, nil
	case http.StatusNotFound:
		sh.vars.Add("peer_fetch_misses", 1)
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("peer cache: shard %d answered %d", target, resp.StatusCode)
	}
}

// --- peer cache tier -------------------------------------------------------

// readHolders is the one walk over the nodes that may hold key, shared by
// a submission whose owner is down and by cache read-through. It asks
// them in one order — the key's owner, then the bucket's readers in map
// order — under path. The owner's answer is authoritative: readers only
// ever hold copies of what the owner had, so its miss ends the walk. A
// reader's hit counts as a replica hit, and a reader that fails is passed
// over. dead names an owner already found unreachable, which is not asked
// again. This node reads its own tiers through local, or is skipped when
// local is nil. A peer read needs a forward slot: with take the walk
// claims one before its first, and otherwise the caller holds one.
func (sh *shardState) readHolders(key, path string, dead int, local *rescache.Tiered, take bool) ([]byte, bool, error) {
	m := sh.Map()
	owner, err := m.ShardOf(key)
	if err != nil {
		// Not a routable key (zone keys and cache keys always are); there
		// is no owner to ask, so it is an authoritative miss, not a fault.
		return nil, false, nil
	}
	readers, _ := m.ReplicasOf(key)
	var lastErr error
	for i := -1; i < len(readers); i++ {
		t := owner
		if i >= 0 {
			t = readers[i]
		}
		var val []byte
		var ok bool
		switch {
		case t == dead, t == sh.id && local == nil:
			continue
		case t == sh.id:
			val, ok = local.GetLocal(key)
		default:
			if take {
				take = false
				select {
				case sh.slots <- struct{}{}:
					defer func() { <-sh.slots }()
				default:
					return nil, false, fmt.Errorf("peer cache: forward slots saturated")
				}
			}
			if val, ok, err = sh.fetchCached(t, path, key); err != nil {
				lastErr = err
				continue
			}
		}
		if ok {
			if t != owner {
				sh.count(&sh.met.ReplicaHits, "replica_read_hits")
			}
			return val, true, nil
		}
		if t == owner {
			return nil, false, nil
		}
	}
	return nil, false, lastErr
}

// peerCacheTier implements rescache.PeerTier over the fleet: a local
// miss walks the key's other holders (readHolders) — its owner, then the
// bucket's readers — so a dead owner degrades a read to its warm copies
// before it degrades to a local re-solve. It is read-only by construction
// and shares the forward slot bound, so cache read-through cannot outgrow
// the same backpressure budget.
type peerCacheTier struct {
	sh   *shardState
	path string // "/v1/shard/cache/" or "/v1/shard/zones/"
}

func (p *peerCacheTier) PeerGet(key string) ([]byte, bool, error) {
	return p.sh.readHolders(key, p.path, -1, nil, true)
}

var _ rescache.PeerTier = (*peerCacheTier)(nil)
