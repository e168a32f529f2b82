package server

// Live shard-map convergence: gossip, adoption, bucket handoff, and
// replication-on-write. The shard map is a versioned immutable object;
// this file is everything that moves a node from one version to the
// next while the fleet keeps serving.
//
// Every candidate map — anti-entropy pulls, maps piggybacked on 409
// catch-up and handoff pushes, operator injection — funnels through
// adoptMap, whose only gate is shard.ShouldAdopt: strictly newer, same
// shape, and (for adjacent versions) at most one bucket moved. Stale
// candidates are counted and ignored, never errors: old maps circulate
// legitimately while a rebalance propagates. Adoption is monotone, so
// the fleet converges on the highest version anyone has published and
// a node never moves backward.
//
// A node that surrenders a bucket drains before it flips: while still
// routing by the old map (so nothing is lost if the drain dies), it
// pushes the bucket's warm cached artifacts to the new owner over
// PUT /v1/shard/cache|zones/{key}, carrying the NEW map inline so the
// receiver can adopt it and accept as owner. Only then does the new map
// become this node's routing truth. The drain enumerates the memory
// tier only — content addressing makes every copy identical, so a
// partial drain costs the new owner hit rate, never correctness.
//
// Replication-on-write keeps failover warm: every clean result a node
// caches is also copied to the key's replica shards (memory-only on
// the receiver), so a later owner death degrades reads to a replica
// instead of a 503.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"wavemin/internal/httpjson"
	"wavemin/internal/rescache"
	"wavemin/internal/shard"
)

// shardLabel is the dispatch lease label of shard id under map version
// ver — workers see which partition epoch granted their lease, and the
// label follows every adoption.
func shardLabel(id, ver int) string { return fmt.Sprintf("s%d@v%d", id, ver) }

// adoptMap is the single entry point through which this node's map ever
// changes. It serializes on adoptMu, gates on shard.ShouldAdopt (stale →
// counted and ignored; invalid → counted and rejected), drains any
// bucket this node is surrendering to its new owner, and only then
// stores the new map and re-labels the dispatch coordinator. source is
// for the expvar trail only.
func (s *Server) adoptMap(cand *shard.Map, source string) error {
	sh := s.sh
	sh.adoptMu.Lock()
	defer sh.adoptMu.Unlock()
	cur := sh.Map()
	if err := shard.ShouldAdopt(cur, cand); err != nil {
		if errors.Is(err, shard.ErrStaleVersion) {
			sh.count(&sh.met.MapsStale, "maps_ignored_stale")
		} else {
			sh.count(&sh.met.MapsRejected, "maps_rejected")
		}
		return err
	}
	next := cand.Clone()
	s.drainSurrendered(cur, next)
	sh.m.Store(next)
	sh.mapGauge.Set(int64(next.Version))
	sh.count(&sh.met.MapsAdopted, "maps_adopted")
	sh.vars.Add("maps_adopted_"+source, 1)
	s.coord.SetShardLabel(shardLabel(sh.id, next.Version))
	return nil
}

// drainSurrendered pushes the warm artifacts of every bucket this node
// owns under cur but not under next to the bucket's new owner, BEFORE
// the flip: the drain happens while this node still routes (and still
// answers peer lookups) by cur, so a failed push leaves the old owner
// authoritative and nothing is lost — the new owner just starts colder.
// Caller holds adoptMu.
func (s *Server) drainSurrendered(cur, next *shard.Map) {
	sh := s.sh
	moved, _, err := shard.Diff(cur, next)
	if err != nil {
		return // ShouldAdopt already pinned the shapes equal
	}
	surrendered := make(map[int]int) // bucket → new owner
	for _, b := range moved {
		if cur.Assign[b] == sh.id && next.Assign[b] != sh.id {
			surrendered[b] = next.Assign[b]
		}
	}
	if len(surrendered) == 0 {
		return
	}
	s.drainTier(next, surrendered, s.cache, "/v1/shard/cache/")
	s.drainTier(next, surrendered, s.zones, "/v1/shard/zones/")
}

// drainTier pushes t's warm keys in surrendered buckets to their new
// owners over path. A nil t (the zone tier of an ECO-off node) holds
// nothing to drain.
func (s *Server) drainTier(next *shard.Map, surrendered map[int]int, t *rescache.Tiered, path string) {
	if t == nil {
		return
	}
	sh := s.sh
	for _, key := range t.LocalKeys() {
		b, err := next.BucketOf(key)
		if err != nil {
			continue // internal bookkeeping keys (job→zones maps) may not route
		}
		newOwner, ok := surrendered[b]
		if !ok {
			continue
		}
		val, ok := t.GetLocal(key)
		if !ok {
			continue // evicted between snapshot and read
		}
		if err := s.pushKey(newOwner, path, key, val, next); err != nil {
			sh.count(&sh.met.HandoffSendErrs, "handoff_send_errors")
			continue
		}
		sh.count(&sh.met.HandoffSent, "handoff_keys_sent")
	}
}

// pushKey PUTs one cached artifact to a peer, carrying m's version and
// encoding so the receiver can adopt m before judging ownership. Used by
// bucket handoff (m = the map being adopted) and replication-on-write
// (m = the current map).
func (s *Server) pushKey(target int, path, key string, val []byte, m *shard.Map) error {
	resp, _, err := s.sh.roundTrip(context.Background(), target, http.MethodPut, path+key, val, m, maxShardMapBytes)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("peer %d answered %d", target, resp.StatusCode)
	}
	return nil
}

// replicateResult copies a clean cached result to the key's replica
// shards, so a later owner death finds warm read-only copies. Failures
// are counted, never surfaced: a missing replica copy degrades a future
// failover read to a miss, not this job's completion.
func (s *Server) replicateResult(key string, val []byte) {
	sh := s.sh
	if sh == nil {
		return
	}
	m := sh.Map()
	set, err := m.ReplicasOf(key)
	if err != nil || len(set) == 0 {
		return
	}
	for _, t := range set {
		if t == sh.id {
			continue
		}
		if err := s.pushKey(t, "/v1/shard/cache/", key, val, m); err != nil {
			sh.count(&sh.met.ReplicaPushErrs, "replica_push_errors")
			continue
		}
		sh.count(&sh.met.ReplicaPushes, "replica_pushes")
	}
}

// --- push endpoints --------------------------------------------------------

// handleShardPut accepts a pushed artifact into t — the result tier or
// the zone tier (bucket handoff or replication-on-write). The receiver
// judges the push under ITS OWN current map — catching up from the
// carried map or the sender first when the versions skew — and accepts
// durably as the key's owner, memory-only as one of its replicas, and
// refuses 421 with NO write otherwise: a hostile or misrouted push can
// waste bandwidth, never place bytes on a shard the map says shouldn't
// hold them. A nil t is the zone tier of an ECO-off node.
func (s *Server) handleShardPut(t *rescache.Tiered) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			httpjson.WriteError(w, &httpjson.Error{Status: http.StatusBadRequest, Code: "eco_disabled",
				Message: "this node has no zone cache (Options.Eco / wavemind -eco)"})
			return
		}
		sh := s.sh
		key := r.PathValue("key")
		if !validCacheKey(key) {
			httpjson.WriteError(w, &httpjson.Error{Status: http.StatusBadRequest, Code: "bad_key",
				Message: "cache keys are 64-character lowercase-hex digests"})
			return
		}
		val, apiErr := httpjson.ReadBody(w, r, maxPeerResponseBytes)
		if apiErr != nil {
			httpjson.WriteError(w, apiErr)
			return
		}
		from, _ := forwardedFrom(r)
		m := s.agreeForwarded(w, r, from)
		if m == nil {
			return
		}
		owner, err := m.ShardOf(key)
		if err != nil {
			httpjson.WriteError(w, httpjson.BadRequest("shard routing: %v", err))
			return
		}
		switch {
		case owner == sh.id:
			t.Put(key, val)
			sh.count(&sh.met.HandoffRecv, "handoff_keys_received")
		case m.IsReplica(key, sh.id):
			t.PutLocal(key, val)
			sh.count(&sh.met.ReplicaStored, "replica_keys_stored")
		default:
			sh.count(&sh.met.PushRefused, "push_wrong_shard")
			httpjson.WriteError(w, &httpjson.Error{Status: http.StatusMisdirectedRequest, Code: "wrong_shard",
				Message: fmt.Sprintf("key belongs to shard %d; this node (shard %d) is neither its owner nor a replica", owner, sh.id)})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleShardMapPost is operator/test map injection: the rebalance
// entry point. The body names an encoded map; it passes the same
// ShouldAdopt gate as every gossiped candidate, so a stale or invalid
// injection is a structured 4xx, never a changed map.
func (s *Server) handleShardMapPost(w http.ResponseWriter, r *http.Request) {
	sh := s.sh
	body, apiErr := httpjson.ReadBody(w, r, maxShardMapBytes)
	if apiErr != nil {
		httpjson.WriteError(w, apiErr)
		return
	}
	var payload struct {
		Map string `json:"map"`
	}
	if err := json.Unmarshal(body, &payload); err != nil || payload.Map == "" {
		httpjson.WriteError(w, httpjson.BadRequest(`want {"map": "v<ver>:<bits>:<shards>[:<assign>][:r<replicas>]"}`))
		return
	}
	cand, err := shard.Decode(payload.Map)
	if err != nil {
		sh.count(&sh.met.MapsRejected, "maps_rejected")
		httpjson.WriteError(w, &httpjson.Error{Status: http.StatusBadRequest, Code: "bad_map",
			Message: err.Error()})
		return
	}
	if err := s.adoptMap(cand, "operator"); err != nil {
		code := "map_rejected"
		if errors.Is(err, shard.ErrStaleVersion) {
			code = "map_stale"
		}
		httpjson.WriteError(w, &httpjson.Error{Status: http.StatusConflict, Code: code, Message: err.Error()})
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]any{"adopted": true, "mapVersion": cand.Version})
}

// --- anti-entropy ----------------------------------------------------------

// fetchAndAdopt pulls peer's map over GET /v1/shard/map and adopts it if
// it supersedes this node's. shard.ErrStaleVersion (peer at or behind
// our version) is the quiet steady state, not a failure.
func (s *Server) fetchAndAdopt(peer int) error {
	sh := s.sh
	resp, body, err := sh.roundTrip(context.Background(), peer, http.MethodGet, "/v1/shard/map", nil, sh.Map(), maxShardMapBytes)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: gossip: peer %d answered %d", peer, resp.StatusCode)
	}
	var payload struct {
		MapVersion int    `json:"mapVersion"`
		Map        string `json:"map"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&payload); err != nil {
		return fmt.Errorf("server: gossip: peer %d: %w", peer, err)
	}
	if payload.MapVersion <= sh.Map().Version {
		// Peers at or behind this node are the steady state; skip the
		// decode and the adoption-gate counters entirely.
		return shard.ErrStaleVersion
	}
	cand, err := shard.Decode(payload.Map)
	if err != nil {
		sh.count(&sh.met.MapsRejected, "maps_rejected")
		return fmt.Errorf("server: gossip: peer %d: %w", peer, err)
	}
	return s.adoptMap(cand, "gossip")
}

// gossipPullOnce is the anti-entropy pull, run every GossipInterval:
// ask each peer for its map and adopt anything newer. Forward-path
// piggybacking converges the routes that carry traffic; this loop
// converges the ones that don't — an idle node still follows a
// rebalance.
func (s *Server) gossipPullOnce() {
	sh := s.sh
	for p := range sh.peers {
		if p == sh.id {
			continue
		}
		sh.count(&sh.met.GossipPulls, "gossip_pulls")
		if err := s.fetchAndAdopt(p); err != nil && !errors.Is(err, shard.ErrStaleVersion) {
			sh.count(&sh.met.GossipErrs, "gossip_errors")
		}
	}
}
