package server

// FuzzShardMapGossip hardens the live-map attack surface: hostile
// operator injections (POST /v1/shard/map with arbitrary bodies) and
// forged handoff/replica pushes (PUT /v1/shard/cache/{key} with
// arbitrary version and piggybacked-map headers and arbitrary values).
// The contract under fuzz:
//
//   - Every response is a success or a STRUCTURED 4xx — never a 5xx,
//     never a panic. Stale maps are ignored-with-counter (409
//     map_stale), invalid maps rejected (400/409), both structured.
//   - The node's map version is MONOTONE: no input ever moves it
//     backward. (It may legitimately rise — a fuzzed input that spells
//     a valid newer same-shape map IS an adoption, and must pass the
//     same gate as a real one.)
//   - No wrong-shard cache write: a push the node does not accept (it
//     is neither owner nor replica of the key under its live map at
//     that moment) leaves no trace in the cache tiers. Accepted pushes
//     are re-checked against the live map after the fact.
//
// Peer URLs are dead sockets: a hostile version header claiming a newer
// map triggers a catch-up dial that must fail closed into the
// structured 409, never a 5xx or a hang (port 1 refuses the dial at
// once).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"wavemin/internal/shard"
)

func FuzzShardMapGossip(f *testing.F) {
	base, err := shard.New(3, 8, 3)
	if err != nil {
		f.Fatal(err)
	}
	base, err = base.WithReplicas(1)
	if err != nil {
		f.Fatal(err)
	}
	dead := []string{"http://127.0.0.1:1", "http://127.0.0.1:1", "http://127.0.0.1:1"}
	srv, err := New(Options{ShardMap: base, ShardID: 0, Peers: dead})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(ts.Close)

	// accepted tracks every key a push legitimately stored (as owner or
	// replica); the cache tiers may never hold more distinct entries
	// than this set, or a refused push wrote anyway.
	var acceptedMu sync.Mutex
	accepted := map[string]bool{}

	ownedKey := strings.Repeat("0", 64)        // bucket 0 → shard 0 (round-robin)
	otherKey := "01" + strings.Repeat("0", 62) // bucket 1 → shard 1, replica 2
	seeds := []struct {
		mapBody, key, ver, mapHdr string
		val                       []byte
	}{
		{`{"map":"v4:8:3:r*1"}`, ownedKey, "3", "", []byte("x")},     // clean adoption, clean owned push
		{`{"map":"v1:8:3"}`, otherKey, "3", "", []byte("y")},         // stale map, wrong-shard push
		{`{"map":"v9:4:3"}`, ownedKey, "99", "v99:8:3", []byte("z")}, // shape change, piggybacked catch-up
		{`{"map":"v1073741825:8:3"}`, ownedKey, "-1", "vX", nil},     // version overflow, hostile headers
		{`not json`, "../../etc/passwd", "v3", "not-a-map", []byte{0}},
		{`{"map":"v4:8:3:` + strings.Repeat("0,", 255) + `0"}`, strings.Repeat("f", 64), "4", "v4:8:3", []byte("w")},
		{`{"map":""}`, strings.Repeat("F", 64), "3", "", bytes.Repeat([]byte("A"), 256)},
	}
	for _, s := range seeds {
		f.Add(s.mapBody, s.key, s.ver, s.mapHdr, s.val)
	}

	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r < 0x20 || r == 0x7f {
				return '_'
			}
			return r
		}, s)
	}
	structured := func(t *testing.T, what string, code int, body []byte) {
		t.Helper()
		if code < 400 {
			return
		}
		if code >= 500 {
			t.Fatalf("%s: status %d (want structured 4xx): %s", what, code, body)
		}
		if code == http.StatusNotFound && bytes.HasPrefix(body, []byte("404 page not found")) {
			return // a path-collapsing key never reached the route
		}
		var out struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil || out.Error.Code == "" {
			t.Fatalf("%s: status %d without a structured error code: %s", what, code, body)
		}
	}

	f.Fuzz(func(t *testing.T, mapBody, key, ver, mapHdr string, val []byte) {
		before := srv.sh.Map().Version

		// Hostile operator injection.
		resp, err := http.Post(ts.URL+"/v1/shard/map", "application/json", strings.NewReader(mapBody))
		if err != nil {
			t.Fatalf("POST /v1/shard/map: transport error: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		structured(t, "map injection", resp.StatusCode, body)
		if resp.StatusCode == http.StatusOK {
			var out struct {
				Adopted    bool `json:"adopted"`
				MapVersion int  `json:"mapVersion"`
			}
			if err := json.Unmarshal(body, &out); err != nil || !out.Adopted || out.MapVersion <= before {
				t.Fatalf("200 adoption that is not a forward step: %s (was v%d)", body, before)
			}
		}

		// Forged push with hostile version and piggybacked-map headers.
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/shard/cache/"+url.PathEscape(key), bytes.NewReader(val))
		if err != nil {
			return // unsendable path: the HTTP client refused, not the server
		}
		req.Header.Set("X-Wavemin-Forwarded-From", "1")
		req.Header.Set("X-Wavemin-Shard-Map-Version", sanitize(ver))
		if mapHdr != "" {
			req.Header.Set("X-Wavemin-Shard-Map", sanitize(mapHdr))
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		pushResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT push: transport error: %v", err)
		}
		pushBody, _ := io.ReadAll(pushResp.Body)
		pushResp.Body.Close()
		structured(t, "forged push", pushResp.StatusCode, pushBody)

		after := srv.sh.Map()
		if after.Version < before {
			t.Fatalf("map version moved backward: v%d -> v%d", before, after.Version)
		}
		acceptedMu.Lock()
		if pushResp.StatusCode == http.StatusNoContent {
			// An accepted push must be justified by the live map: this
			// node is the key's owner or one of its replicas. (The map
			// can only have risen since the write; content addressing
			// keeps a copy accepted under an older epoch harmless.)
			owner, err := after.ShardOf(key)
			if err == nil && owner != 0 && !after.IsReplica(key, 0) {
				acceptedMu.Unlock()
				t.Fatalf("push for key %q accepted, but node 0 is neither owner (shard %d) nor replica", key, owner)
			}
			accepted[key] = true
		}
		n := len(accepted)
		acceptedMu.Unlock()
		if entries := srv.cache.Stats().Mem.Entries; entries > n {
			t.Fatalf("cache holds %d entries but only %d pushes were accepted: a refused push wrote anyway", entries, n)
		}
	})
}
