package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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
	// A complete request followed by a closer: encoding/json's
	// Decoder.More reports false at '}' and ']', so only a check that
	// nothing but whitespace follows the object refuses these.
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}}}`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}}]`,
	`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}}}}]`,
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
	// Timeouts whose Duration in nanoseconds overflows int64: they clamp to
	// the server's ceiling, not to a deadline already past.
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"timeoutMs":9223372036854775807}`, validTree)))
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"timeoutMs":18446744073709}`, validTree)))

	opts := Options{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, apiErr := decodeOptimizeRequest(body, opts)
		if apiErr != nil {
			if apiErr.Status < 400 || apiErr.Status > 499 {
				t.Fatalf("decode error with status %d, want 4xx", apiErr.Status)
			}
			if apiErr.Code == "" || apiErr.Message == "" {
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

// envelopeTree is a valid one-node tree; quotedTree is a valid tree
// whose strings hold quotes, brackets and escapes, which the one-pass
// reader's bracket count must step over.
const (
	envelopeTree = `{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`
	quotedTree   = `{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"domain":"a\"]}{[\\"},` +
		`{"id":1,"parent":0,"cell":"BUF_X8","x":5,"y":0,"sink_cap":4,"domain":"}}]]\"\u0022"}]}`
)

// plainEnvelopes are request bodies as clients write them — every field,
// either key order, nulls, any JSON whitespace, strings holding quotes,
// brackets and escapes — which the one-pass reader must answer itself.
var plainEnvelopes = []string{
	`{"tree":` + envelopeTree + `}`,
	`{"tree":` + quotedTree + `,"config":{"samples":16}}`,
	`{"config":{"kappa":20,"samples":158,"epsilon":0.01},"tree":` + envelopeTree + `}`,
	`{"tree":` + envelopeTree + `,"config":{"kappa":12,"algorithm":"fast","enableAdi":true},"modes":[{"name":"lo","supplies":{"core":0.9}},{"name":"hi\"]","supplies":{"core":1.1}}],` +
		`"priority":"high","timeoutMs":1500,"noCache":true,"baseJobId":"j-000001","trace":true}`,
	`{"tree":` + envelopeTree + `,"yield":{"samples":64,"candidates":2,"epsilon":0,"seed":-3}}`,
	`{"tree":` + envelopeTree + `,"yield":{"samples":64,"epsilon":null}}`,
	`{"tree":` + envelopeTree + `,"config":null,"modes":null,"priority":null,"timeoutMs":null,"noCache":null,"baseJobId":null,"trace":null,"yield":null}`,
	"\r\n\t {\r\"tree\"\t:\n" + envelopeTree + "\r,\t\"config\" : {\"samples\":16}\n}\r\n\t ",
	`{"tree":` + envelopeTree + `,"timeoutMs":-0}`,
}

// TestReadEnvelopeAnswersPlainBodies: the one-pass reader answers the
// bodies clients send, or the service pays the Decoder's copies on them.
func TestReadEnvelopeAnswersPlainBodies(t *testing.T) {
	for i, body := range plainEnvelopes {
		if _, _, ok := readEnvelope([]byte(body)); !ok {
			t.Errorf("body %d %.80q: the one-pass reader declined it", i, body)
		}
	}
}

// FuzzRequestEnvelope holds the one-pass envelope reader to the Decoder
// path it stands in for. A body the reader accepts, decodeEnvelope
// accepts too, into the same wireRequest; and decodeOptimizeRequest's
// answer for any body — the request, key, config, modes, priority,
// timeout, flags, base job, yield params and tree bytes, or the status,
// code and message of its refusal — is the one decodeEnvelope gives.
func FuzzRequestEnvelope(f *testing.F) {
	tree := envelopeTree
	bodies := []string{
		// Keys encoding/json matches case-insensitively, and repeated keys
		// it merges: the reader declines them all.
		`{"Tree":` + tree + `}`,
		`{"tree":` + tree + `,"TREE":{}}`,
		`{"tree":{},"tree":` + tree + `}`,
		`{"tree":` + tree + `,"config":{"samples":16},"config":{"kappa":15}}`,
		`{"tree":` + tree + `,"Config":{"Samples":16}}`,
		`{"tr\u0065e":` + tree + `}`,
		// Unknown fields, at the top level and nested.
		`{"tree":` + tree + `,"unknown":1}`,
		`{"tree":` + tree + `,"config":{"samplez":16}}`,
		`{"tree":` + tree + `,"yield":{"sigma":0.1,"bogus":true}}`,
		`{"tree":` + tree + `,"modes":[{"name":"m","supplies":{"core":1},"extra":0}]}`,
		// A null tree, and whitespace JSON does not allow.
		`{"tree":null}`,
		"{\"tree\":" + tree + "\f}",
		"{\"tree\":" + tree + "\u00a0}",
		// Not a request object.
		"\ufeff{\"tree\":" + tree + "}",
		`{}`, ``, ` `, `null`, `[]`, `"tree"`, `17`, `{"tree"}`, `{"tree":}`, `{"tree":` + tree + `,}`, `{"tree":` + tree,
		// Trailing data.
		`{"tree":` + tree + `}}`,
		`{"tree":` + tree + `}]`,
		`{"tree":` + tree + `}}}]`,
		`{"tree":` + tree + `} x`,
		`{"tree":` + tree + `}{}`,
		`{"tree":` + tree + `}null`,
		// Numbers encoding/json refuses for an int64, and ones it takes.
		`{"tree":` + tree + `,"timeoutMs":1e3}`,
		`{"tree":` + tree + `,"timeoutMs":1.0}`,
		`{"tree":` + tree + `,"timeoutMs":01}`,
		`{"tree":` + tree + `,"timeoutMs":9223372036854775808}`,
		`{"tree":` + tree + `,"timeoutMs":"5"}`,
		// Values of the wrong kind, and values with bytes after them.
		`{"tree":"` + strings.ReplaceAll(tree, `"`, `\"`) + `"}`,
		`{"tree":[` + tree + `]}`,
		`{"tree":` + tree + `,"noCache":1}`,
		`{"tree":` + tree + `,"trace":truex}`,
		`{"tree":` + tree + `,"config":{"samples":16}x}`,
		`{"tree":` + tree + `,"config":nullx}`,
		`{"tree":` + tree + ` x,"config":{}}`,
		`{"tree":` + tree + `,"priority":"low"x}`,
		`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]]}`,
		`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"id":0}]}}`,
		`{"tree":{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]},"priority":"\ud800"}`,
	}
	for _, body := range slices.Concat(plainEnvelopes, bodies, malformedRequests) {
		f.Add([]byte(body))
	}

	opts := Options{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		wantWire, wantTree, envErr := decodeEnvelope(body)
		want, wantErr := (*optimizeRequest)(nil), envErr
		if envErr == nil {
			want, wantErr = newOptimizeRequest(&wantWire, wantTree, opts)
		}
		if wire, _, ok := readEnvelope(body); ok {
			if envErr != nil {
				t.Fatalf("the reader accepts a body decodeEnvelope refuses: %s", envErr.Message)
			}
			if !reflect.DeepEqual(wire, wantWire) {
				t.Fatalf("the reader decoded\n%+v\nthe Decoder\n%+v", wire, wantWire)
			}
		}
		got, gotErr := decodeOptimizeRequest(body, opts)
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("decodeOptimizeRequest refused with %+v, the Decoder path with %+v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeOptimizeRequest gave\n%+v\nthe Decoder path\n%+v", got, want)
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
