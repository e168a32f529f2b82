package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"wavemin"
)

// requestBody is a benchmark circuit's POST /v1/optimize body as the
// service benchmark writes it: the saved tree, compacted, first, then the
// paper's Table V config.
func requestBody(t testing.TB, circuit string) []byte {
	t.Helper()
	d, err := wavemin.Benchmark(circuit)
	if err != nil {
		t.Fatal(err)
	}
	var saved, body bytes.Buffer
	if err := d.SaveTree(&saved); err != nil {
		t.Fatal(err)
	}
	body.WriteString(`{"tree":`)
	if err := json.Compact(&body, saved.Bytes()); err != nil {
		t.Fatal(err)
	}
	body.WriteString(`,"config":{"kappa":20,"samples":158,"epsilon":0.01}}`)
	return body.Bytes()
}

// TestDecodeOptimizeRequestAllocs pins the allocations of one request
// decode for an s13207-size tree, the median request of the service
// benchmark: the decode checks the tree and hashes its canonical form
// without building a clock tree, a power grid or a design (448
// allocations when it did), against the shared default cell library (280
// when it built a fresh one per request), and reads the envelope in one
// pass with the tree left in place in the body (222 allocations and
// 82 KB when a Decoder copied the body and then the tree).
func TestDecodeOptimizeRequestAllocs(t *testing.T) {
	body := requestBody(t, "s13207")
	if _, _, ok := readEnvelope(body); !ok {
		t.Fatal("the one-pass reader declined the benchmark's request body")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own account")
	}
	opts := Options{}.withDefaults()
	decode := func() {
		if _, apiErr := decodeOptimizeRequest(body, opts); apiErr != nil {
			t.Fatal(apiErr.Message)
		}
	}
	allocs := testing.AllocsPerRun(20, decode)

	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decode()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024

	t.Logf("%d-byte body: %.0f allocations, %.1f KB per decode", len(body), allocs, kb)
	if allocs > 220 {
		t.Errorf("decodeOptimizeRequest made %.0f allocations, want at most 220", allocs)
	}
	if kb > 48 {
		t.Errorf("decodeOptimizeRequest allocated %.1f KB, want at most 48", kb)
	}
}

// TestWireKeysMatchWireRequest: the one-pass reader's key list is
// wireRequest's JSON tags in field order, so a new wire field cannot be
// left out of it.
func TestWireKeysMatchWireRequest(t *testing.T) {
	typ := reflect.TypeOf(wireRequest{})
	if typ.NumField() != len(wireKeys) {
		t.Fatalf("wireRequest has %d fields, wireKeys %d", typ.NumField(), len(wireKeys))
	}
	for i := range typ.NumField() {
		if tag := typ.Field(i).Tag.Get("json"); tag != wireKeys[i] {
			t.Errorf("field %d: json tag %q, wireKeys[%d] %q", i, tag, i, wireKeys[i])
		}
	}
}

// BenchmarkDecodeOptimizeRequest times one request decode — envelope,
// tree check, canonical key — on the service benchmark's body shape.
func BenchmarkDecodeOptimizeRequest(b *testing.B) {
	opts := Options{}.withDefaults()
	for _, circuit := range []string{"s13207", "s38417"} {
		body := requestBody(b, circuit)
		b.Run(circuit, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, apiErr := decodeOptimizeRequest(body, opts); apiErr != nil {
					b.Fatal(apiErr.Message)
				}
			}
		})
	}
}
