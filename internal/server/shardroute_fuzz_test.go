package server

// FuzzShardRoute hardens the routing layer's attack surface: forged
// peer-forward requests (arbitrary forwarded-from and map-version
// headers), hostile job IDs (overflow shard fields, path traversal,
// out-of-map shards), hostile peer-cache keys, and arbitrary submit
// bodies. The contract under fuzz: every such request terminates on the
// receiving node with a structured 4xx — never a 5xx, never a panic,
// never a second forwarding hop, and never a write into the local cache
// tiers (a wrong-shard cache write would poison the fleet's
// read-through).
//
// Every fuzz request carries the forwarded-from marker, which by the
// protocol pins it to this node: forwarded requests are never
// re-forwarded. The dead peer URLs below are dialed at most by the
// live-map catch-up path (a sender claiming a newer version triggers a
// fetch-and-adopt against it), and that dial failing is part of the
// contract under test: catch-up failure must surface as the structured
// 409, never as a 5xx or a hung request.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"wavemin/internal/shard"
)

func FuzzShardRoute(f *testing.F) {
	m, err := shard.New(3, 8, 3) // version 3: common fuzz strings ("", "1") skew
	if err != nil {
		f.Fatal(err)
	}
	// Peer URLs are black holes: forwards never dial them (single hop),
	// and the catch-up fetches that do must fail closed into 4xx (port 1
	// refuses the dial at once).
	dead := []string{"http://127.0.0.1:1", "http://127.0.0.1:1", "http://127.0.0.1:1"}
	srv, err := New(Options{ShardMap: m, ShardID: 0, Peers: dead})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(ts.Close)
	var everAccepted atomic.Bool

	seeds := []struct{ id, from, ver, key, body string }{
		{"j-s1-000001", "2", "3", "ab" + strings.Repeat("0", 62), `{}`},
		{"j-s0-000001", "x", "1", strings.Repeat("f", 64), `not json`},
		{"j-s99999-000001", "2", "3", "../../etc/passwd", ``},
		{"j-s1-9999999999999999999", "-1", "99", strings.Repeat("F", 64), `[]`},
		{"j-s1-../../etc/passwd", "", "v3", "short", `{"tree":{}}`},
		{"j-000001", "1", "3", strings.Repeat("0", 64), `{"unknown":1}`},
		{"j-s0-000001/result", "0", "3", strings.Repeat("0", 63) + "g", `{"tree":null}`},
	}
	for _, s := range seeds {
		f.Add(s.id, s.from, s.ver, s.key, []byte(s.body))
	}

	// sanitizeHeader maps fuzz bytes onto the sendable header-value set:
	// raw control bytes cannot cross an HTTP/1.1 wire (the client refuses
	// them before the server ever sees the request), so they are not part
	// of the server's attack surface — substitute a visible stand-in and
	// keep the rest of the hostile value.
	sanitizeHeader := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r < 0x20 || r == 0x7f {
				return '_'
			}
			return r
		}, s)
	}

	do := func(t *testing.T, method, path, from, ver string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			// The fuzzer built an unsendable path (control bytes); that is
			// the HTTP client refusing, not the server — skip.
			return 0, nil
		}
		if from == "" {
			from = "forged" // keep the hop marker present: single-hop pin
		}
		req.Header.Set("X-Wavemin-Forwarded-From", sanitizeHeader(from))
		req.Header.Set("X-Wavemin-Shard-Map-Version", sanitizeHeader(ver))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: transport error (a forwarded request left the node?): %v", method, path, err)
		}
		defer resp.Body.Close()
		respBody, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, respBody
	}

	assertStructured := func(t *testing.T, what string, code int, body []byte) {
		t.Helper()
		if code == 0 || code == http.StatusOK || code == http.StatusAccepted {
			return // unsendable, or the rare fully valid request
		}
		if code >= 500 {
			t.Fatalf("%s: status %d (want structured 4xx): %s", what, code, body)
		}
		if code == http.StatusNotFound && bytes.HasPrefix(body, []byte("404 page not found")) {
			// An ID whose escaped form collapses the path (empty, ".", "..")
			// never reaches the route: the mux's own plain-text 404 is the
			// refusal, one layer earlier.
			return
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

	f.Fuzz(func(t *testing.T, id, from, ver, key string, body []byte) {
		// Hostile job IDs through the read-routing path. PathEscape keeps
		// raw fuzz bytes a single path segment, the same shape a real
		// client's URL yields after mux parsing.
		code, respBody := do(t, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), from, ver, nil)
		assertStructured(t, "job read", code, respBody)

		// Hostile keys against the peer cache and zone lookups.
		code, respBody = do(t, http.MethodGet, "/v1/shard/cache/"+url.PathEscape(key), from, ver, nil)
		assertStructured(t, "peer cache lookup", code, respBody)
		code, respBody = do(t, http.MethodGet, "/v1/shard/zones/"+url.PathEscape(key), from, ver, nil)
		assertStructured(t, "peer zone lookup", code, respBody)

		// Forged forwarded submits with arbitrary bodies.
		code, respBody = do(t, http.MethodPost, "/v1/optimize", from, ver, body)
		assertStructured(t, "forwarded submit", code, respBody)

		// No refused input may have written into the local cache tiers: a
		// rejected request that still cached something is a wrong-shard
		// write. The only path that may legitimately cache is a fully
		// valid, locally owned submit (202/200); should the fuzzer ever
		// synthesize one, the zero-entry invariant no longer holds and the
		// check disarms for the rest of this worker's run.
		if code == http.StatusAccepted || code == http.StatusOK {
			everAccepted.Store(true)
		}
		if !everAccepted.Load() {
			if st := srv.cache.Stats(); st.Mem.Entries != 0 {
				t.Fatalf("refused requests left %d entries in the local cache tier", st.Mem.Entries)
			}
		}
	})
}
