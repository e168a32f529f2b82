package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wavemin"
)

// malformedTrees is the FuzzLoadTree seed corpus from the root package:
// the malformed-tree shapes the loader hardening rejected one by one
// (wrong format tag, empty node list, unknown cell, out-of-range and
// duplicate IDs, dangling parents, non-root node 0, negative or
// non-finite parasitics, adjust steps on a cell that has none). The
// service wraps the same loader, so each must come back as a structured
// 400 — never a 500 or a panic.
var malformedTrees = []string{
	`{}`,
	`{"format":"wavemin-clocktree-v0","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"NOPE","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":5,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":0,"parent":0,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":7,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"wire_res":-4}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"sink_cap":-1}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":1e999,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"adjust_steps":{"m1":3}}]}`,
}

// malformedRequests are request-level (not tree-level) rejections.
var malformedRequests = []string{
	``,
	`not json`,
	`[]`,
	`{"tree":{}} trailing`,
	`{"unknown_knob":1}`,
	`{"config":{"samples":16}}`, // tree missing
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"config":{"samples":1}}`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"config":{"algorithm":"quantum"}}`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"priority":"urgent"}`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"timeoutMs":-5}`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"modes":[{"name":""}]}`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"modes":[{"name":"m","supplies":{"core":-1}}]}`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"modes":[{"name":"m"},{"name":"m"}]}`,
	// ECO base references: a non-string baseJobId is a decode-level 400;
	// a well-formed one on a server without ECO enabled is a structured
	// 400 ("eco_disabled") from the submit path — never a 5xx, and never
	// a solver run.
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"baseJobId":17}`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"baseJobId":"j-000001"}`,
}

// FuzzOptimizeRequest drives arbitrary bytes through the request decoder:
// every input must either decode to a fully validated job or fail with a
// structured 4xx — never panic, never produce a half-valid request — and
// an accepted job's key must be the one LoadTree + SetModes + CacheKey
// derive from the same body.
func FuzzOptimizeRequest(f *testing.F) {
	for _, tree := range malformedTrees {
		f.Add([]byte(fmt.Sprintf(`{"tree":%s}`, tree)))
	}
	for _, body := range malformedRequests {
		f.Add([]byte(body))
	}
	// One fully valid request so the fuzzer explores the accept path too.
	valid := fmt.Sprintf(`{"tree":%s,"config":{"samples":16},"priority":"low","timeoutMs":1000}`,
		`{"format":"wavemin-clocktree-v1","nodes":[
		 {"id":0,"parent":-1,"cell":"BUF_X8","x":10,"y":10},
		 {"id":1,"parent":0,"cell":"BUF_X8","x":20,"y":10,"wire_res":1,"wire_cap":2,"sink_cap":8},
		 {"id":2,"parent":0,"cell":"INV_X8","x":10,"y":20,"wire_res":1,"wire_cap":2,"sink_cap":8}]}`)
	f.Add([]byte(valid))
	// ECO base references the decoder must pass through untouched (the
	// server resolves them at submit time): a replayed-looking ID, a
	// hostile path-shaped ID, and one with control bytes.
	validTree := `{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"baseJobId":"j-000001"}`, validTree)))
	f.Add([]byte(fmt.Sprintf("{\"tree\":%s,\"baseJobId\":\"j-\u0000\u001b[2J\"}", validTree)))
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"baseJobId":"../../etc/passwd"}`, validTree)))
	// Accepted multi-mode and yield requests, whose keys cover the modes
	// section and the yield extension.
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"modes":[{"name":"lo","supplies":{"core":0.9}},{"name":"hi","supplies":{"core":1.1}}]}`, validTree)))
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"yield":{"samples":64,"candidates":2}}`, validTree)))

	opts := Options{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, apiErr := decodeOptimizeRequest(body, opts)
		if apiErr != nil {
			if apiErr.status < 400 || apiErr.status > 499 {
				t.Fatalf("decode error with status %d, want 4xx", apiErr.status)
			}
			if apiErr.code == "" || apiErr.message == "" {
				t.Fatalf("unstructured decode error: %+v", apiErr)
			}
			if req != nil {
				t.Fatal("decoder returned both a request and an error")
			}
			return
		}
		// Accepted requests must be complete: a queueable job with a
		// cache identity and an enforceable deadline.
		if len(req.tree) == 0 || req.key == "" || req.timeout <= 0 || req.timeout > opts.MaxTimeout {
			t.Fatalf("accepted request is incomplete: %+v", req)
		}
		if err := req.cfg.Validate(); err != nil {
			t.Fatalf("accepted request carries invalid config: %v", err)
		}
		// The key is the one a design loaded from the same tree gives the
		// same problem: one decode on the request path changes no key.
		d, err := wavemin.LoadTree(bytes.NewReader(req.tree))
		if err != nil {
			t.Fatalf("accepted tree fails LoadTree: %v", err)
		}
		if len(req.modes) > 0 {
			if err := d.SetModes(req.modes); err != nil {
				t.Fatalf("accepted modes fail SetModes: %v", err)
			}
		}
		want, err := d.CacheKey(req.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if req.yield != nil {
			want = req.yield.Key(want)
		}
		if req.key != want {
			t.Fatalf("request key %s, loaded design's %s", req.key, want)
		}
	})
}

// TestOptimizeRejectsMalformed replays the corpus through the real HTTP
// stack: each malformed body must yield a structured JSON 400 from
// POST /v1/optimize.
func TestOptimizeRejectsMalformed(t *testing.T) {
	srv := mustNew(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var bodies []string
	for _, tree := range malformedTrees {
		bodies = append(bodies, fmt.Sprintf(`{"tree":%s}`, tree))
	}
	bodies = append(bodies, malformedRequests...)

	for i, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %d %.80q: status %d, want 400", i, body, resp.StatusCode)
			continue
		}
		if derr != nil || out.Error.Code == "" || out.Error.Message == "" {
			t.Errorf("body %d %.80q: unstructured 400 (decode err %v, error %+v)", i, body, derr, out.Error)
		}
	}
	if got := srv.MetricsSnapshot().SolverRuns; got != 0 {
		t.Fatalf("malformed requests ran the solver %d times", got)
	}

	// Oversized bodies are bounded before decoding: 413, not an OOM.
	big := fmt.Sprintf(`{"tree":"%s"}`, strings.Repeat("x", maxRequestBytes))
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := io.ReadAll(resp.Body); rerr != nil {
		t.Logf("reading 413 body: %v", rerr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}
