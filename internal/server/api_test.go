package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"wavemin"
)

// TestDecodeOptimizeRequestAllocs pins the allocation count of one request
// decode for an s13207-size tree, the median request of the service
// benchmark: the decode checks the tree and hashes its canonical form
// without building a clock tree, a power grid or a design (448 allocations
// when it did), against the shared default cell library (280 when it
// built a fresh one per request).
func TestDecodeOptimizeRequestAllocs(t *testing.T) {
	d, err := wavemin.Benchmark("s13207")
	if err != nil {
		t.Fatal(err)
	}
	var tree bytes.Buffer
	if err := d.SaveTree(&tree); err != nil {
		t.Fatal(err)
	}
	body := marshalReq(t, map[string]any{
		"tree":   json.RawMessage(tree.Bytes()),
		"config": map[string]any{"kappa": 20, "samples": 158, "epsilon": 0.01},
	})
	opts := Options{}.withDefaults()
	allocs := testing.AllocsPerRun(20, func() {
		if _, apiErr := decodeOptimizeRequest(body, opts); apiErr != nil {
			t.Fatal(apiErr.message)
		}
	})
	t.Logf("%d-byte body: %.0f allocations per decode", len(body), allocs)
	if allocs > 240 {
		t.Fatalf("decodeOptimizeRequest made %.0f allocations, want at most 240", allocs)
	}
}
