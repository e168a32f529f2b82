package wavemin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/cts"
)

func cacheKeyOf(t *testing.T, d *Design, cfg Config) string {
	t.Helper()
	k, err := d.CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCacheKeyDefaultFilling(t *testing.T) {
	d, err := New(gridSinks(6))
	if err != nil {
		t.Fatal(err)
	}
	zero := cacheKeyOf(t, d, Config{})
	spelled := cacheKeyOf(t, d, Config{
		Kappa: 20, Samples: 158, Epsilon: 0.01, ZoneSize: 50,
		Algorithm: WaveMin, MaxIntervals: 8, MaxIntersections: 8,
	})
	if zero != spelled {
		t.Fatal("zero config and spelled-out defaults must hash identically")
	}
}

func TestCacheKeyExcludesExecutionPolicy(t *testing.T) {
	d, err := New(gridSinks(6))
	if err != nil {
		t.Fatal(err)
	}
	base := cacheKeyOf(t, d, Config{})
	if cacheKeyOf(t, d, Config{Workers: 7}) != base {
		t.Fatal("Workers must not enter the cache key (results are worker-count independent)")
	}
	if cacheKeyOf(t, d, Config{Budget: 1e9}) != base {
		t.Fatal("Budget must not enter the cache key (execution policy)")
	}
}

func TestCacheKeySemanticFieldsChangeKey(t *testing.T) {
	d, err := New(gridSinks(6))
	if err != nil {
		t.Fatal(err)
	}
	base := cacheKeyOf(t, d, Config{})
	variants := map[string]Config{
		"kappa":             {Kappa: 25},
		"samples":           {Samples: 64},
		"epsilon":           {Epsilon: 0.05},
		"zone":              {ZoneSize: 75},
		"algorithm":         {Algorithm: WaveMinFast},
		"adi":               {EnableADI: true},
		"max_intervals":     {MaxIntervals: 4},
		"max_intersections": {MaxIntersections: 4},
	}
	seen := map[string]string{base: "base"}
	for name, cfg := range variants {
		k := cacheKeyOf(t, d, cfg)
		if prev, dup := seen[k]; dup {
			t.Fatalf("changing %s collided with %s", name, prev)
		}
		seen[k] = name
	}
}

func TestCacheKeyInvalidConfig(t *testing.T) {
	d, err := New(gridSinks(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CacheKey(Config{Kappa: -1}); err == nil {
		t.Fatal("invalid config must not produce a key")
	}
}

func TestCacheKeyModeCanonicalization(t *testing.T) {
	d, err := New(gridSinks(6))
	if err != nil {
		t.Fatal(err)
	}
	m1 := Mode{Name: "perf", Supplies: map[string]float64{"a": 1.1, "b": 1.1}}
	m2 := Mode{Name: "save", Supplies: map[string]float64{"a": 0.9, "b": 1.1}}

	if err := d.SetModes([]Mode{m1, m2}); err != nil {
		t.Fatal(err)
	}
	fwd := cacheKeyOf(t, d, Config{})
	if err := d.SetModes([]Mode{m2, m1}); err != nil {
		t.Fatal(err)
	}
	rev := cacheKeyOf(t, d, Config{})
	if fwd != rev {
		t.Fatal("permuted-but-identical mode lists must hash identically")
	}
	if err := d.SetModes([]Mode{m2, m1, m1}); err != nil {
		t.Fatal(err)
	}
	if cacheKeyOf(t, d, Config{}) != fwd {
		t.Fatal("an exact duplicate mode adds no constraint and must not change the key")
	}
	if err := d.SetModes([]Mode{m1, {Name: "save", Supplies: map[string]float64{"a": 0.95, "b": 1.1}}}); err != nil {
		t.Fatal(err)
	}
	if cacheKeyOf(t, d, Config{}) == fwd {
		t.Fatal("a changed supply voltage must change the key")
	}
	if err := d.SetModes([]Mode{m1, {Name: "sleep", Supplies: map[string]float64{"a": 0.9, "b": 1.1}}}); err != nil {
		t.Fatal(err)
	}
	if cacheKeyOf(t, d, Config{}) == fwd {
		t.Fatal("a changed mode name must change the key")
	}
}

func TestCacheKeyTreeSensitivity(t *testing.T) {
	d1, err := New(gridSinks(6))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(gridSinks(6))
	if err != nil {
		t.Fatal(err)
	}
	if cacheKeyOf(t, d1, Config{}) != cacheKeyOf(t, d2, Config{}) {
		t.Fatal("identically built designs must hash identically")
	}
	d3, err := New(gridSinks(7))
	if err != nil {
		t.Fatal(err)
	}
	if cacheKeyOf(t, d1, Config{}) == cacheKeyOf(t, d3, Config{}) {
		t.Fatal("different trees must not collide")
	}
	// A tree that round-trips through serialization keeps its key: the
	// canonical form IS the serialization.
	var sb strings.Builder
	if err := d1.SaveTree(&sb); err != nil {
		t.Fatal(err)
	}
	d4, err := LoadTree(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if cacheKeyOf(t, d1, Config{}) != cacheKeyOf(t, d4, Config{}) {
		t.Fatal("a round-tripped tree must keep its cache key")
	}
}

// requestTreeShapes are serialized trees shaped to split the request path
// (one decode, checks on the wire nodes, the hand-written canonical
// writer) from LoadTree + SaveTree: shuffled node order, duplicate and
// case-variant keys, unknown fields, -0, floats at encoding/json's 'f'/'e'
// switch, names with <>&, U+2028 or invalid UTF-8, empty and multi-mode
// adjust steps, negative coordinates (the die is floored at the origin),
// trailing data after the tree, and the structural faults whose order the
// checks keep.
var requestTreeShapes = []string{
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":2,"parent":1,"cell":"INV_X8","x":5,"y":6,"sink_cap":8,"domain":"d1"},{"id":0,"parent":-1,"cell":"BUF_X16","x":1,"y":2},{"id":1,"parent":0,"cell":"BUF_X8","x":3,"y":4,"wire_res":0.25}]}`,
	`{"format":"wavemin-clocktree-v1","format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","cell":"INV_X4","x":1,"x":2,"y":3}]}`,
	`{"FORMAT":"wavemin-clocktree-v1","Nodes":[{"ID":0,"Parent":-1,"CELL":"BUF_X8","X":3,"y":4},{"Id":1,"pArEnT":0,"cell":"BUF_X8","x":1,"y":1,"Wire_Res":1,"SINK_CAP":2,"Domain":"d1"}]}`,
	`{"format":"wavemin-clocktree-v1","extra":[1,{"a":null}],"nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":1,"y":1,"color":"red","children":[1]}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":-0,"y":-0.0,"wire_res":-0,"sink_cap":-0.0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":1e-7,"y":1e21,"wire_res":1E-300,"wire_cap":9.999999e-7,"sink_cap":123456789012345678901234}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":-5,"y":-7,"domain":"<a&b>"},{"id":1,"parent":0,"cell":"ADB_X8","x":-1,"y":-2,"domain":"d1","adjust_steps":{"m<1":2,"M>":0,"&":1,"\u2028":1}}]}`,
	"{\"format\":\"wavemin-clocktree-v1\",\"nodes\":[{\"id\":0,\"parent\":-1,\"cell\":\"BUF_X8\",\"x\":0,\"y\":0,\"domain\":\"a\u2028b\\u2029c\"}]}",
	"{\"format\":\"wavemin-clocktree-v1\",\"nodes\":[{\"id\":0,\"parent\":-1,\"cell\":\"BUF_X8\",\"x\":0,\"y\":0,\"domain\":\"\xff\xfe\\u0000\\t\"}]}",
	"{\"format\":\"wavemin-clocktree-v1\",\"nodes\":[{\"id\":0,\"parent\":-1,\"cell\":\"BUF_X8\xff\",\"x\":0,\"y\":0}]}",
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"adjust_steps":{}},{"id":1,"parent":0,"cell":"ADI_X8","x":1,"y":1,"adjust_steps":{"M3":3,"M1":0,"M2":1}}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]} trailing {"ignored":true}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8"`,
	``,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":2,"cell":"BUF_X8","x":0,"y":0},{"id":2,"parent":1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":0,"cell":"BUF_X8"}]}`,
}

// requestKeyCases are the (modes, config) pairs checkRequestKey keys every
// accepted tree under: nominal and multi-mode problems, and the mode and
// config refusals, whose order and text must match SetModes then CacheKey.
var requestKeyCases = []struct {
	modes []Mode
	cfg   Config
}{
	{nil, Config{}},
	{nil, Config{Kappa: 20, Samples: 158, Epsilon: 0.01, Workers: 1}},
	{[]Mode{
		{Name: "hi", Supplies: map[string]float64{"core": 1.1, "d1": 1.0}},
		{Name: "lo", Supplies: map[string]float64{"d1": 0.9, "core": 0.95}},
		{Name: "hi", Supplies: map[string]float64{"d1": 1.0, "core": 1.1}},
	}, Config{Kappa: 14, Samples: 16, EnableADI: true, MaxIntersections: 4}},
	{nil, Config{Kappa: -1}},
	{[]Mode{{Name: "m", Supplies: map[string]float64{"core": -1}}}, Config{Kappa: -1}},
	{[]Mode{{Name: "m"}, {Name: "m", Supplies: map[string]float64{"core": 1}}}, Config{}},
}

// checkRequestKey holds the request path to the loader on one serialized
// tree: ReadCanonicalTree accepts and refuses what LoadTree does, with the
// same error text, and for an accepted tree CanonicalTree.CacheKey equals
// LoadTree + SetModes + Design.CacheKey — key or error — in every case of
// requestKeyCases.
func checkRequestKey(t *testing.T, src []byte) {
	t.Helper()
	ct, err := ReadCanonicalTree(src)
	_, wantErr := LoadTree(bytes.NewReader(src))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ReadCanonicalTree error %v, LoadTree %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	for i, c := range requestKeyCases {
		d, err := LoadTree(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := "", error(nil)
		if len(c.modes) > 0 {
			wantErr = d.SetModes(c.modes)
		}
		if wantErr == nil {
			want, wantErr = d.CacheKey(c.cfg)
		}
		got, err := ct.CacheKey(c.modes, c.cfg)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("case %d: request key %q (error %v), loaded design %q (error %v)", i, got, err, want, wantErr)
		}
	}
}

// TestRequestKeyMatchesLoadTree runs the request-path differential over
// every bench circuit at three placements, as SaveTree writes it and
// compacted as a request body carries it, and over the loader's seeds and
// the hostile shapes.
func TestRequestKeyMatchesLoadTree(t *testing.T) {
	lib := cell.DefaultLibrary()
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	for _, spec := range bench.Specs() {
		name := spec.Name
		for _, placement := range []string{"", "@1", "@2"} {
			spec.Name = name + placement
			tree, err := spec.Synthesize(lib, opt)
			if err != nil {
				t.Fatal(err)
			}
			var saved, compact bytes.Buffer
			if err := tree.WriteJSON(&saved); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&compact, saved.Bytes()); err != nil {
				t.Fatal(err)
			}
			t.Run(spec.Name, func(t *testing.T) {
				checkRequestKey(t, saved.Bytes())
				checkRequestKey(t, compact.Bytes())
			})
		}
	}
	for _, src := range append(append([]string(nil), loadTreeSeeds...), requestTreeShapes...) {
		checkRequestKey(t, []byte(src))
	}
}
