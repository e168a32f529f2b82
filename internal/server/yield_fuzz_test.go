package server

import (
	"fmt"
	"testing"
)

// yieldValidTree is a minimal well-formed tree for yield fuzz bodies.
const yieldValidTree = `{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`

// hostileYieldBlocks is the seed corpus of hostile yield configs: every
// shape that once looked tempting to pass through unvalidated — NaN/Inf
// knobs, negative and overflow-sized budgets, huge candidate counts,
// wrong JSON types, control bytes in strings. Each must come back as a
// structured 400, never a 5xx, never a solver or sampler run.
var hostileYieldBlocks = []string{
	`{"sigma":"NaN"}`,
	`{"sigma":1e999}`,
	`{"sigma":-0.5}`,
	`{"sigma":7}`,
	`{"correlation":-1}`,
	`{"correlation":2}`,
	`{"kappa":-20}`,
	`{"kappa":1e999}`,
	`{"peakCap":-1}`,
	`{"peakCap":1e999}`,
	`{"samples":-1}`,
	`{"samples":1073741824}`,
	`{"samples":3.5}`,
	`{"epsilon":0.75}`,
	`{"epsilon":-0.1}`,
	`{"epsilon":1e999}`,
	`{"confidence":0.1}`,
	`{"confidence":1.5}`,
	`{"candidates":-3}`,
	`{"candidates":1000000}`,
	`{"candidates":"all"}`,
	"{\"seed\":\"\u0000\u001b[2J\"}",
	`{"unknown_yield_knob":1}`,
	`[1,2,3]`,
	`"yes"`,
}

// FuzzYieldRequest drives hostile yield blocks (and arbitrary mutations
// of them) through the request decoder. The contract matches
// FuzzOptimizeRequest: every input either decodes to a fully validated
// yield job or fails with a structured 4xx — never a panic, never a 5xx
// shape, never a half-valid request.
func FuzzYieldRequest(f *testing.F) {
	for _, blk := range hostileYieldBlocks {
		f.Add([]byte(fmt.Sprintf(`{"tree":%s,"yield":%s}`, yieldValidTree, blk)))
	}
	// Structurally hostile combinations.
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"yield":{},"baseJobId":"j-000001"}`, yieldValidTree)))
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"yield":{},"modes":[{"name":"a"},{"name":"b"}]}`, yieldValidTree)))
	f.Add([]byte(`{"yield":{}}`)) // tree missing entirely
	// Valid yield requests so the fuzzer explores the accept path:
	// defaults-only, explicit epsilon 0 (full-budget mode), and a fully
	// specified block.
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"yield":{}}`, yieldValidTree)))
	f.Add([]byte(fmt.Sprintf(`{"tree":%s,"yield":{"epsilon":0}}`, yieldValidTree)))
	f.Add([]byte(fmt.Sprintf(
		`{"tree":%s,"yield":{"sigma":0.1,"correlation":0.3,"kappa":25,"peakCap":9000,"samples":512,"epsilon":0.01,"confidence":0.99,"candidates":2,"seed":42}}`,
		yieldValidTree)))

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
		if req.yield == nil {
			return // decoded as a plain optimization request — fine
		}
		// Accepted yield requests must be complete and fully bounded.
		if err := req.yield.Validate(); err != nil {
			t.Fatalf("accepted yield request carries invalid params: %v", err)
		}
		if req.baseJobID != "" {
			t.Fatal("accepted yield request carries a baseJobId")
		}
		if len(req.modes) > 1 {
			t.Fatalf("accepted yield request carries %d modes", len(req.modes))
		}
		if req.key == "" || len(req.key) != 64 {
			t.Fatalf("accepted yield request has malformed extended key %q", req.key)
		}
	})
}
