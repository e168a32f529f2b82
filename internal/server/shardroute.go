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
//     kept warm by replication-on-write and bucket handoff) and only a
//     key with no reachable copy gets the 503 shard_unavailable with
//     Retry-After. Content addressing makes a replica-served answer
//     byte-identical to the owner's, so failover is never-wrong, only
//     possibly a miss.
//
// In-flight forwards are bounded (maxForwardInFlight); past the
// bound, submissions are refused with 503 forward_backpressure so a
// slow peer cannot pile unbounded goroutines onto its neighbors.

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

// maxForwardInFlight bounds concurrent forwards and cache read-throughs
// to peers; past it, submissions get 503 forward_backpressure.
const maxForwardInFlight = 128

// peerTimeout bounds each peer call — forwarded requests, cache
// read-throughs and pushes alike.
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

	forwardsOut     atomic.Int64
	forwardsIn      atomic.Int64
	wrongShard      atomic.Int64
	unavailable     atomic.Int64
	backpressure    atomic.Int64
	badJobID        atomic.Int64
	mapVersionConf  atomic.Int64
	peerServeHits   atomic.Int64
	peerServeMisses atomic.Int64

	mapsAdopted     atomic.Int64
	mapsStale       atomic.Int64
	mapsRejected    atomic.Int64
	gossipPulls     atomic.Int64
	gossipErrs      atomic.Int64
	handoffSent     atomic.Int64
	handoffSendErrs atomic.Int64
	handoffRecv     atomic.Int64
	replicaStored   atomic.Int64
	pushRefused     atomic.Int64
	replicaPushes   atomic.Int64
	replicaPushErrs atomic.Int64
	replicaHits     atomic.Int64
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

// bump increments a routing counter and mirrors it into the node's
// per-shard expvar map.
func (sh *shardState) bump(c *atomic.Int64, name string) {
	c.Add(1)
	sh.vars.Add(name, 1)
}

func (sh *shardState) metrics() ShardMetrics {
	m := sh.Map()
	return ShardMetrics{
		ShardID:         sh.id,
		MapVersion:      m.Version,
		Shards:          m.Shards,
		ForwardsOut:     sh.forwardsOut.Load(),
		ForwardsIn:      sh.forwardsIn.Load(),
		WrongShard:      sh.wrongShard.Load(),
		Unavailable:     sh.unavailable.Load(),
		Backpressure:    sh.backpressure.Load(),
		BadJobID:        sh.badJobID.Load(),
		MapVersionConf:  sh.mapVersionConf.Load(),
		PeerServeHits:   sh.peerServeHits.Load(),
		PeerServeMisses: sh.peerServeMisses.Load(),
		MapsAdopted:     sh.mapsAdopted.Load(),
		MapsStale:       sh.mapsStale.Load(),
		MapsRejected:    sh.mapsRejected.Load(),
		GossipPulls:     sh.gossipPulls.Load(),
		GossipErrs:      sh.gossipErrs.Load(),
		HandoffSent:     sh.handoffSent.Load(),
		HandoffSendErrs: sh.handoffSendErrs.Load(),
		HandoffRecv:     sh.handoffRecv.Load(),
		ReplicaStored:   sh.replicaStored.Load(),
		PushRefused:     sh.pushRefused.Load(),
		ReplicaPushes:   sh.replicaPushes.Load(),
		ReplicaPushErrs: sh.replicaPushErrs.Load(),
		ReplicaHits:     sh.replicaHits.Load(),
	}
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

// syncForwardedVersion reconciles a forwarded request's map version with
// this node's. Equal versions agree immediately. A sender that is AHEAD
// is the convergence signal: this node fetches the sender's map and
// adopts it (through the shard.ShouldAdopt gate) before re-checking, so
// a lagging receiver catches up inside the request instead of bouncing
// 409s until gossip arrives. A sender that is behind — or a fetch that
// fails — leaves the skew standing, and the caller answers the 409; the
// response carries this node's version (piggyback middleware), so the
// SENDER then adopts and retries. Returns the map to route by and
// whether the versions agree.
func (s *Server) syncForwardedVersion(r *http.Request, from int) (*shard.Map, bool) {
	sh := s.sh
	m := sh.Map()
	v, err := strconv.Atoi(r.Header.Get(headerShardMapVersion))
	if err != nil {
		return m, false
	}
	if v == m.Version {
		return m, true
	}
	if v > m.Version && from >= 0 && from < len(sh.peers) && from != sh.id {
		if enc := r.Header.Get(headerShardMap); enc != "" && len(enc) <= maxShardMapBytes {
			// Handoff pushes carry the map inline: the sender is mid-adoption
			// and cannot serve the new version over GET yet.
			if cand, derr := shard.Decode(enc); derr == nil {
				_ = s.adoptMap(cand, "piggyback")
			} else {
				sh.bump(&sh.mapsRejected, "maps_rejected")
			}
		} else {
			_ = s.fetchAndAdopt(from)
		}
		if m = sh.Map(); v == m.Version {
			return m, true
		}
	}
	return m, false
}

// writeMapSkew answers version skew that survived catch-up: the
// retryable 409 of the routing contract. The piggybacked version header
// on this very response is what lets the sender converge and retry.
func (s *Server) writeMapSkew(w http.ResponseWriter, senderVer string) {
	sh := s.sh
	sh.bump(&sh.mapVersionConf, "map_version_conflicts")
	writeAPIError(w, &apiError{status: http.StatusConflict, code: "shard_map_version",
		message: fmt.Sprintf("shard map version skew: sender has %q, this node has %d; retry after the rebalance settles", senderVer, sh.Map().Version)})
}

// writeWrongShard refuses a forwarded request this node does not own:
// either a forged header or a misrouted hop, and refusing (never
// re-forwarding) makes routing loops structurally impossible.
func (s *Server) writeWrongShard(w http.ResponseWriter, owner int) {
	sh := s.sh
	sh.bump(&sh.wrongShard, "wrong_shard_rejected")
	writeAPIError(w, &apiError{status: http.StatusMisdirectedRequest, code: "wrong_shard",
		message: fmt.Sprintf("key belongs to shard %d; this node is shard %d and forwarded requests are never re-forwarded", owner, sh.id)})
}

// routeOptimize decides where a decoded submission runs. It returns true
// when it fully handled the request (forwarded it, failed it over to a
// replica, or refused it); false means this node owns the key and
// admission continues locally.
func (s *Server) routeOptimize(w http.ResponseWriter, r *http.Request, req *optimizeRequest, body []byte) bool {
	sh := s.sh
	if from, fwd := forwardedFrom(r); fwd {
		m, agreed := s.syncForwardedVersion(r, from)
		if !agreed {
			s.writeMapSkew(w, r.Header.Get(headerShardMapVersion))
			return true
		}
		owner, err := m.ShardOf(req.key)
		if err != nil {
			writeAPIError(w, badRequest("shard routing: %v", err))
			return true
		}
		if owner != sh.id {
			s.writeWrongShard(w, owner)
			return true
		}
		sh.bump(&sh.forwardsIn, "forwards_in")
		req.forwardedFrom = from
		return false
	}
	for attempt := 0; ; attempt++ {
		m := sh.Map()
		owner, err := m.ShardOf(req.key)
		if err != nil {
			// CacheKey always yields a routable 64-hex key, so this is
			// unreachable in practice — but routing must degrade to a 4xx.
			writeAPIError(w, badRequest("shard routing: %v", err))
			return true
		}
		if owner == sh.id {
			return false
		}
		res, ferr := s.forwardToPeer(w, r, owner, http.MethodPost, "/v1/optimize", body, "application/json", attempt == 0)
		switch res {
		case forwardRetry:
			// A newer map was adopted mid-forward; recompute the owner
			// (it may now be this node) and try once more.
			continue
		case forwardOwnerDown:
			if s.serveFromReplica(w, req) {
				return true
			}
			s.writeShardUnavailable(w, owner, ferr)
			return true
		default:
			return true
		}
	}
}

// routeJobRead decides where a GET /v1/jobs/... lands, by the shard ID
// encoded in the job ID. Legacy (unsharded) IDs resolve locally. Returns
// true when the request was fully handled here. Job state — unlike
// cached results — is owner-local and has no replicas, so a dead owner
// here stays a 503.
func (s *Server) routeJobRead(w http.ResponseWriter, r *http.Request, id string) bool {
	sh := s.sh
	owner, _, sharded, err := shard.DecodeJobID(id)
	if err != nil {
		sh.bump(&sh.badJobID, "bad_job_ids")
		writeAPIError(w, &apiError{status: http.StatusBadRequest, code: "bad_job_id",
			message: fmt.Sprintf("job ID %q: %v", id, err)})
		return true
	}
	if sharded && owner >= sh.Map().Shards {
		sh.bump(&sh.badJobID, "bad_job_ids")
		writeAPIError(w, &apiError{status: http.StatusBadRequest, code: "bad_job_id",
			message: fmt.Sprintf("job ID %q references shard %d beyond the %d-shard map", id, owner, sh.Map().Shards)})
		return true
	}
	if from, fwd := forwardedFrom(r); fwd {
		// Forwarded reads terminate here whatever the ID says — single hop.
		if !sharded {
			return false
		}
		if _, agreed := s.syncForwardedVersion(r, from); !agreed {
			s.writeMapSkew(w, r.Header.Get(headerShardMapVersion))
			return true
		}
		if owner != sh.id {
			s.writeWrongShard(w, owner)
			return true
		}
		return false
	}
	if !sharded || owner == sh.id {
		return false
	}
	res, ferr := s.forwardToPeer(w, r, owner, http.MethodGet, r.URL.EscapedPath(), nil, "", true)
	if res == forwardRetry {
		// Job ownership is fixed by the ID, so the adopted map cannot
		// change the target — but the retry now carries the agreed version.
		res, ferr = s.forwardToPeer(w, r, owner, http.MethodGet, r.URL.EscapedPath(), nil, "", false)
	}
	if res == forwardOwnerDown {
		s.writeShardUnavailable(w, owner, ferr)
	}
	return true
}

// forwardResult is what forwardToPeer did with the request.
type forwardResult int

const (
	// forwardDone: a response was written (the owner's answer relayed,
	// or a structured refusal) — the request is finished.
	forwardDone forwardResult = iota
	// forwardOwnerDown: the owner was unreachable and NOTHING was
	// written; the caller chooses replica failover or 503.
	forwardOwnerDown
	// forwardRetry: the peer answered 409 with a newer map, this node
	// adopted it, and nothing was written; the caller re-routes.
	forwardRetry
)

// forwardToPeer relays a request to the owning shard and streams the
// owner's response back verbatim (plus a served-by header). A 409 from
// a peer that is AHEAD triggers fetch-and-adopt and (when allowRetry)
// returns forwardRetry instead of relaying the refusal — the sender-side
// half of live-map convergence. Backpressure is answered directly;
// transport failures are returned unwritten so the caller can degrade
// to a replica read.
func (s *Server) forwardToPeer(w http.ResponseWriter, r *http.Request, owner int, method, path string, body []byte, contentType string, allowRetry bool) (forwardResult, error) {
	sh := s.sh
	select {
	case sh.slots <- struct{}{}:
		defer func() { <-sh.slots }()
	default:
		sh.bump(&sh.backpressure, "forward_backpressure")
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": map[string]any{
				"code":              "forward_backpressure",
				"message":           fmt.Sprintf("too many forwards to peers in flight (bound %d); retry shortly", cap(sh.slots)),
				"retryAfterSeconds": 1,
			},
		})
		return forwardDone, nil
	}
	sh.bump(&sh.forwardsOut, "forwards_out")
	preq, err := http.NewRequestWithContext(r.Context(), method, sh.peers[owner]+path, bytes.NewReader(body))
	if err != nil {
		return forwardOwnerDown, err
	}
	preq.Header.Set(headerForwardedFrom, strconv.Itoa(sh.id))
	preq.Header.Set(headerShardMapVersion, strconv.Itoa(sh.Map().Version))
	if contentType != "" {
		preq.Header.Set("Content-Type", contentType)
	}
	resp, err := sh.client.Do(preq)
	if err != nil {
		return forwardOwnerDown, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes))
	if err != nil {
		return forwardOwnerDown, err
	}
	if resp.StatusCode == http.StatusConflict && allowRetry {
		if pv, perr := strconv.Atoi(resp.Header.Get(headerShardMapVersion)); perr == nil && pv > sh.Map().Version {
			if s.fetchAndAdopt(owner) == nil {
				return forwardRetry, nil
			}
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
	return forwardDone, nil
}

// writeShardUnavailable is the routing contract's "owner is down and no
// replica could answer" refusal: the key is temporarily unserviceable —
// no other node may ADOPT it (only replicas may READ for it) — so the
// client gets a retryable 503 with a hint.
func (s *Server) writeShardUnavailable(w http.ResponseWriter, owner int, err error) {
	sh := s.sh
	sh.bump(&sh.unavailable, "shard_unavailable")
	w.Header().Set("Retry-After", strconv.Itoa(shardUnavailableRetrySeconds))
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error": map[string]any{
			"code":              "shard_unavailable",
			"message":           fmt.Sprintf("shard %d owner unreachable: %v", owner, err),
			"retryAfterSeconds": shardUnavailableRetrySeconds,
		},
	})
}

// serveFromReplica answers a submission whose owner is down from a
// replica copy of the cached result: the bucket's reader shards (this
// node included) are consulted in map order, and a hit is served as a
// normal cache-hit job minted locally. Content addressing makes the
// copy byte-identical to the owner's answer, so the only thing degraded
// about this path is that an uncached key still gets the 503. Returns
// false when no replica could answer (caller falls through to 503).
func (s *Server) serveFromReplica(w http.ResponseWriter, req *optimizeRequest) bool {
	sh := s.sh
	if req.noCache {
		return false
	}
	m := sh.Map()
	set, err := m.ReplicasOf(req.key)
	if err != nil || len(set) == 0 {
		return false
	}
	for _, t := range set {
		var blob []byte
		var ok bool
		if t == sh.id {
			blob, ok = s.cache.GetLocal(req.key)
		} else {
			blob, ok, _ = sh.fetchCached(t, "/v1/shard/cache/", req.key)
		}
		if !ok {
			continue
		}
		sh.bump(&sh.replicaHits, "replica_read_hits")
		bump(&s.met.submitted, "server_jobs_submitted")
		s.serveCacheHit(w, req, blob)
		return true
	}
	return false
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
	writeJSON(w, http.StatusOK, map[string]any{
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
			writeAPIError(w, &apiError{status: http.StatusBadRequest, code: "bad_key",
				message: "cache keys are 64-character lowercase-hex digests"})
			return
		}
		var val []byte
		ok := false
		if t != nil {
			val, ok = t.GetLocal(key)
		}
		if !ok {
			sh.bump(&sh.peerServeMisses, "peer_serve_misses")
			writeAPIError(w, &apiError{status: http.StatusNotFound, code: "cache_miss",
				message: "key not cached on this node"})
			return
		}
		sh.bump(&sh.peerServeHits, "peer_serve_hits")
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(headerServedByShard, strconv.Itoa(sh.id))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(val)
	}
}

// fetchCached performs one peer cache lookup against target's local
// tiers. Callers manage forward slots; this only does the wire work.
func (sh *shardState) fetchCached(target int, path, key string) ([]byte, bool, error) {
	if target < 0 || target >= len(sh.peers) || target == sh.id {
		return nil, false, fmt.Errorf("peer cache: no peer %d", target)
	}
	ctx, cancel := context.WithTimeout(context.Background(), sh.client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.peers[target]+path+key, nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set(headerForwardedFrom, strconv.Itoa(sh.id))
	req.Header.Set(headerShardMapVersion, strconv.Itoa(sh.Map().Version))
	resp, err := sh.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		val, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes))
		if err != nil {
			return nil, false, err
		}
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

// peerCacheTier implements rescache.PeerTier over the fleet: a local
// miss asks the key's owning coordinator for its locally cached bytes,
// and — when the owner cannot be consulted — falls back to the bucket's
// replicas, so a dead owner degrades a read to its warm copies before
// it degrades to a local re-solve. It is read-only by construction and
// shares the forward slot bound, so cache read-through cannot outgrow
// the same backpressure budget.
type peerCacheTier struct {
	sh   *shardState
	path string // "/v1/shard/cache/" or "/v1/shard/zones/"
}

func (p *peerCacheTier) PeerGet(key string) ([]byte, bool, error) {
	sh := p.sh
	m := sh.Map()
	owner, err := m.ShardOf(key)
	if err != nil {
		// Not a routable key (zone keys and cache keys always are); there
		// is no owner to ask, so it is an authoritative miss, not a fault.
		return nil, false, nil
	}
	set, _ := m.ReplicasOf(key)
	targets := make([]int, 0, 1+len(set))
	if owner != sh.id {
		targets = append(targets, owner)
	}
	for _, t := range set {
		if t != sh.id && t != owner {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		// This node IS the authority (and any replicas are itself); its
		// local tiers already missed.
		return nil, false, nil
	}
	select {
	case sh.slots <- struct{}{}:
		defer func() { <-sh.slots }()
	default:
		return nil, false, fmt.Errorf("peer cache: forward slots saturated")
	}
	var lastErr error
	for _, t := range targets {
		val, ok, err := sh.fetchCached(t, p.path, key)
		if err != nil {
			lastErr = err
			continue
		}
		if ok {
			if t != owner {
				sh.bump(&sh.replicaHits, "replica_read_hits")
			}
			return val, true, nil
		}
		if t == owner {
			// The owner answered: the miss is authoritative, and replicas
			// only ever hold copies of what the owner had.
			return nil, false, nil
		}
	}
	if lastErr != nil {
		return nil, false, lastErr
	}
	return nil, false, nil
}

var _ rescache.PeerTier = (*peerCacheTier)(nil)
