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
	"io"
	"net/http"
	"strconv"
	"time"

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
			sh.bump(&sh.mapsStale, "maps_ignored_stale")
		} else {
			sh.bump(&sh.mapsRejected, "maps_rejected")
		}
		return err
	}
	next := cand.Clone()
	s.drainSurrendered(cur, next)
	sh.m.Store(next)
	sh.mapGauge.Set(int64(next.Version))
	sh.bump(&sh.mapsAdopted, "maps_adopted")
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
			sh.bump(&sh.handoffSendErrs, "handoff_send_errors")
			continue
		}
		sh.bump(&sh.handoffSent, "handoff_keys_sent")
	}
}

// pushKey PUTs one cached artifact to a peer, carrying m's version and
// encoding so the receiver can adopt m before judging ownership. Used by
// bucket handoff (m = the map being adopted) and replication-on-write
// (m = the current map).
func (s *Server) pushKey(target int, path, key string, val []byte, m *shard.Map) error {
	sh := s.sh
	ctx, cancel := context.WithTimeout(context.Background(), sh.client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, sh.peers[target]+path+key, bytes.NewReader(val))
	if err != nil {
		return err
	}
	req.Header.Set(headerForwardedFrom, strconv.Itoa(sh.id))
	req.Header.Set(headerShardMapVersion, strconv.Itoa(m.Version))
	req.Header.Set(headerShardMap, m.Encode())
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := sh.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxShardMapBytes))
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
			sh.bump(&sh.replicaPushErrs, "replica_push_errors")
			continue
		}
		sh.bump(&sh.replicaPushes, "replica_pushes")
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
			writeAPIError(w, &apiError{status: http.StatusBadRequest, code: "eco_disabled",
				message: "this node has no zone cache (Options.Eco / wavemind -eco)"})
			return
		}
		sh := s.sh
		key := r.PathValue("key")
		if !validCacheKey(key) {
			writeAPIError(w, &apiError{status: http.StatusBadRequest, code: "bad_key",
				message: "cache keys are 64-character lowercase-hex digests"})
			return
		}
		val, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPeerResponseBytes))
		if err != nil {
			writeAPIError(w, badRequest("reading pushed value: %v", err))
			return
		}
		from, _ := forwardedFrom(r)
		m, agreed := s.syncForwardedVersion(r, from)
		if !agreed {
			s.writeMapSkew(w, r.Header.Get(headerShardMapVersion))
			return
		}
		owner, err := m.ShardOf(key)
		if err != nil {
			writeAPIError(w, badRequest("shard routing: %v", err))
			return
		}
		switch {
		case owner == sh.id:
			t.Put(key, val)
			sh.bump(&sh.handoffRecv, "handoff_keys_received")
		case m.IsReplica(key, sh.id):
			t.PutLocal(key, val)
			sh.bump(&sh.replicaStored, "replica_keys_stored")
		default:
			sh.bump(&sh.pushRefused, "push_wrong_shard")
			writeAPIError(w, &apiError{status: http.StatusMisdirectedRequest, code: "wrong_shard",
				message: fmt.Sprintf("key belongs to shard %d; this node (shard %d) is neither its owner nor a replica", owner, sh.id)})
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShardMapBytes))
	if err != nil {
		writeAPIError(w, badRequest("reading request body: %v", err))
		return
	}
	var payload struct {
		Map string `json:"map"`
	}
	if err := json.Unmarshal(body, &payload); err != nil || payload.Map == "" {
		writeAPIError(w, badRequest(`want {"map": "v<ver>:<bits>:<shards>[:<assign>][:r<replicas>]"}`))
		return
	}
	cand, err := shard.Decode(payload.Map)
	if err != nil {
		sh.bump(&sh.mapsRejected, "maps_rejected")
		writeAPIError(w, &apiError{status: http.StatusBadRequest, code: "bad_map",
			message: err.Error()})
		return
	}
	if err := s.adoptMap(cand, "operator"); err != nil {
		code := "map_rejected"
		if errors.Is(err, shard.ErrStaleVersion) {
			code = "map_stale"
		}
		writeAPIError(w, &apiError{status: http.StatusConflict, code: code, message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"adopted": true, "mapVersion": cand.Version})
}

// --- anti-entropy ----------------------------------------------------------

// fetchAndAdopt pulls peer's map over GET /v1/shard/map and adopts it if
// it supersedes this node's. shard.ErrStaleVersion (peer at or behind
// our version) is the quiet steady state, not a failure.
func (s *Server) fetchAndAdopt(peer int) error {
	sh := s.sh
	if peer < 0 || peer >= len(sh.peers) || peer == sh.id {
		return fmt.Errorf("server: gossip: no peer %d", peer)
	}
	ctx, cancel := context.WithTimeout(context.Background(), sh.client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.peers[peer]+"/v1/shard/map", nil)
	if err != nil {
		return err
	}
	resp, err := sh.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxShardMapBytes))
		return fmt.Errorf("server: gossip: peer %d answered %d", peer, resp.StatusCode)
	}
	var payload struct {
		MapVersion int    `json:"mapVersion"`
		Map        string `json:"map"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxShardMapBytes)).Decode(&payload); err != nil {
		return fmt.Errorf("server: gossip: peer %d: %w", peer, err)
	}
	if payload.MapVersion <= sh.Map().Version {
		// Peers at or behind this node are the steady state; skip the
		// decode and the adoption-gate counters entirely.
		return shard.ErrStaleVersion
	}
	cand, err := shard.Decode(payload.Map)
	if err != nil {
		sh.bump(&sh.mapsRejected, "maps_rejected")
		return fmt.Errorf("server: gossip: peer %d: %w", peer, err)
	}
	return s.adoptMap(cand, "gossip")
}

// gossipLoop is the anti-entropy pull: every GossipInterval, ask each
// peer for its map and adopt anything newer. Forward-path piggybacking
// converges the routes that carry traffic; this loop converges the ones
// that don't — an idle node still follows a rebalance.
func (s *Server) gossipLoop(interval time.Duration) {
	defer s.gossipWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.gossipStop:
			return
		case <-tick.C:
			s.gossipPullOnce()
		}
	}
}

func (s *Server) gossipPullOnce() {
	sh := s.sh
	for p := range sh.peers {
		if p == sh.id {
			continue
		}
		sh.bump(&sh.gossipPulls, "gossip_pulls")
		if err := s.fetchAndAdopt(p); err != nil && !errors.Is(err, shard.ErrStaleVersion) {
			sh.bump(&sh.gossipErrs, "gossip_errors")
		}
	}
}

func (s *Server) stopGossip() {
	if s.gossipStop == nil {
		return
	}
	s.gossipStopOnce.Do(func() { close(s.gossipStop) })
	s.gossipWG.Wait()
}
