package rescache_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"wavemin"
	"wavemin/internal/rescache"
)

// --- Content-hash property: hash equality ⇔ canonical-form equality ----
//
// The cache is only sound if Design.CacheKey is a faithful fingerprint of
// the canonical problem. These tests drive it with randomized (tree,
// Config, modes) triples generated from explicit specs: two builds of the
// SAME spec must collide, builds of DIFFERENT specs must not, and the
// non-semantic degrees of freedom (JSON key order, default-filled config
// fields, mode-list permutation, Workers/Budget) must not affect the key.

// reqSpec deterministically generates one optimization request.
type reqSpec struct {
	nSinks  int
	jitter  int // positional offset, µm
	kappa   float64
	samples int
	algo    wavemin.Algorithm
	nModes  int
}

func (s reqSpec) signature() string {
	return fmt.Sprintf("%d/%d/%g/%d/%d/%d", s.nSinks, s.jitter, s.kappa, s.samples, s.algo, s.nModes)
}

// build constructs the spec's design and config from scratch. The rng
// perturbs only NON-semantic choices (Workers, Budget, mode order), so
// builds of one spec always denote the same canonical problem.
func (s reqSpec) build(t *testing.T, rng *rand.Rand) (*wavemin.Design, wavemin.Config) {
	t.Helper()
	sinks := make([]wavemin.Sink, 0, s.nSinks)
	for i := 0; i < s.nSinks; i++ {
		sinks = append(sinks, wavemin.Sink{
			X:   float64(15 + (i%3)*10 + s.jitter),
			Y:   float64(15 + (i/3)*10),
			Cap: 8,
		})
	}
	d, err := wavemin.New(sinks)
	if err != nil {
		t.Fatal(err)
	}
	if s.nModes > 1 {
		modes := make([]wavemin.Mode, 0, s.nModes)
		for m := 0; m < s.nModes; m++ {
			vdd := 1.1
			if m%2 == 1 {
				vdd = 0.9
			}
			modes = append(modes, wavemin.Mode{
				Name:     fmt.Sprintf("m%d", m),
				Supplies: map[string]float64{"core": vdd},
			})
		}
		rng.Shuffle(len(modes), func(i, j int) { modes[i], modes[j] = modes[j], modes[i] })
		if err := d.SetModes(modes); err != nil {
			t.Fatal(err)
		}
	}
	cfg := wavemin.Config{
		Kappa:   s.kappa,
		Samples: s.samples,
		// Execution policy must never reach the key.
		Workers: rng.Intn(8),
		Budget:  time.Duration(rng.Int63n(int64(time.Second))),
	}
	switch s.algo {
	case wavemin.WaveMin:
		// Leave the zero value on half the builds: default filling must
		// make Config{} and Config{Algorithm: WaveMin} identical.
		if rng.Intn(2) == 0 {
			cfg.Algorithm = wavemin.WaveMin
		}
	default:
		cfg.Algorithm = s.algo
	}
	return d, cfg
}

func randomSpecs(rng *rand.Rand, n int) []reqSpec {
	seen := map[string]bool{}
	var specs []reqSpec
	for len(specs) < n {
		s := reqSpec{
			nSinks:  4 + rng.Intn(6),
			jitter:  rng.Intn(3) * 5,
			kappa:   []float64{0, 16, 20, 25}[rng.Intn(4)],
			samples: []int{0, 32, 64}[rng.Intn(3)],
			algo:    wavemin.Algorithm(rng.Intn(3)),
			nModes:  1 + rng.Intn(3),
		}
		if seen[s.signature()] {
			continue
		}
		seen[s.signature()] = true
		specs = append(specs, s)
	}
	return specs
}

func TestCacheKeyPropertyHashEqualsCanonicalEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := randomSpecs(rng, 8)
	type build struct {
		spec reqSpec
		key  string
	}
	var builds []build
	for _, s := range specs {
		// Two independent builds of the same spec, with different
		// non-semantic noise (worker counts, budgets, mode order).
		for rep := 0; rep < 2; rep++ {
			d, cfg := s.build(t, rng)
			key, err := d.CacheKey(cfg)
			if err != nil {
				t.Fatalf("%s: %v", s.signature(), err)
			}
			builds = append(builds, build{spec: s, key: key})
		}
	}
	for i := range builds {
		for j := i + 1; j < len(builds); j++ {
			same := builds[i].spec.signature() == builds[j].spec.signature()
			if same && builds[i].key != builds[j].key {
				t.Errorf("spec %s: two builds hashed differently", builds[i].spec.signature())
			}
			if !same && builds[i].key == builds[j].key {
				t.Errorf("specs %s and %s collided", builds[i].spec.signature(), builds[j].spec.signature())
			}
		}
	}
}

func TestCacheKeyPropertyJSONKeyOrderIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range randomSpecs(rng, 3) {
		d, cfg := s.build(t, rng)
		want, err := d.CacheKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var canon strings.Builder
		if err := d.SaveTree(&canon); err != nil {
			t.Fatal(err)
		}
		// Re-marshal through map[string]any: object keys come back in
		// sorted order, different from the canonical struct order.
		var blob any
		if err := json.Unmarshal([]byte(canon.String()), &blob); err != nil {
			t.Fatal(err)
		}
		scrambled, err := json.Marshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(scrambled, []byte(canon.String())) {
			t.Fatal("scramble did not change the serialized form; test is vacuous")
		}
		d2, err := wavemin.LoadTree(bytes.NewReader(scrambled))
		if err != nil {
			t.Fatal(err)
		}
		// Carry the modes over: key-order scrambling concerns the tree.
		if s.nModes > 1 {
			d2modes := designModes(d)
			if err := d2.SetModes(d2modes); err != nil {
				t.Fatal(err)
			}
		}
		got, err := d2.CacheKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("spec %s: reordered JSON keys changed the cache key", s.signature())
		}
	}
}

// designModes snapshots a design's modes via the public field (safe here:
// single-goroutine test).
func designModes(d *wavemin.Design) []wavemin.Mode {
	return append([]wavemin.Mode(nil), d.Modes...)
}

func TestCacheKeyPropertySemanticChangeChangesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSpecs(rng, 1)[0]
	d, cfg := s.build(t, rng)
	base, err := d.CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Any semantic config change must change the key.
	for name, mut := range map[string]func(wavemin.Config) wavemin.Config{
		"kappa":   func(c wavemin.Config) wavemin.Config { c.Kappa = c.Kappa + 37; return c },
		"samples": func(c wavemin.Config) wavemin.Config { c.Samples = 77; return c },
		"epsilon": func(c wavemin.Config) wavemin.Config { c.Epsilon = 0.2; return c },
		"adi":     func(c wavemin.Config) wavemin.Config { c.EnableADI = !c.EnableADI; return c },
	} {
		k, err := d.CacheKey(mut(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	// A semantic tree change must change the key.
	var sb strings.Builder
	if err := d.SaveTree(&sb); err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(sb.String(), `"sink_cap": 8`, `"sink_cap": 9`, 1)
	if mutated == sb.String() {
		t.Fatal("tree mutation did not apply; test is vacuous")
	}
	d2, err := wavemin.LoadTree(strings.NewReader(mutated))
	if err != nil {
		t.Fatal(err)
	}
	if s.nModes > 1 {
		if err := d2.SetModes(designModes(d)); err != nil {
			t.Fatal(err)
		}
	}
	k2, err := d2.CacheKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == base {
		t.Error("mutating a sink cap did not change the key")
	}
}

// --- LRU behavior --------------------------------------------------------

func TestLRUEvictionOrder(t *testing.T) {
	c := rescache.New(0, 3)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3"))
	if _, ok := c.Get("a"); !ok { // refresh a: eviction order is now b,c
		t.Fatal("missing a")
	}
	c.Put("d", []byte("4"))
	// b is the LRU victim; a, c and d stay resident, most recent first.
	if got, want := c.Keys(), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("resident keys %v, want %v", got, want)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestLRUMaxBytesAccounting(t *testing.T) {
	// Each entry is 1-byte key + 9-byte value = 10 bytes.
	c := rescache.New(25, 0)
	c.Put("a", bytes.Repeat([]byte("x"), 9))
	c.Put("b", bytes.Repeat([]byte("y"), 9))
	if st := c.Stats(); st.Bytes != 20 || st.Entries != 2 {
		t.Fatalf("stats after two puts: %+v", st)
	}
	c.Put("c", bytes.Repeat([]byte("z"), 9)) // 30 > 25: evict LRU ("a")
	st := c.Stats()
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"c", "b"}) {
		t.Fatalf("wrong victim; keys = %v", got)
	}
	if st.Bytes != 20 || st.Evictions != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	// Replacement adjusts accounting instead of double-counting.
	c.Put("b", []byte("shorter")) // 1+7 = 8 bytes
	if st := c.Stats(); st.Bytes != 18 {
		t.Fatalf("bytes after replace = %d, want 18", st.Bytes)
	}
	// A value that alone exceeds the bound is not stored and evicts nothing.
	c.Put("huge", bytes.Repeat([]byte("h"), 30))
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("oversize value stored; keys = %v", got)
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("oversize put disturbed the cache: %+v", st)
	}
}

func TestLRUGetCopiesAreStable(t *testing.T) {
	c := rescache.New(0, 0)
	val := []byte("payload")
	c.Put("k", val)
	val[0] = 'X' // caller mutating its slice must not reach the cache
	got, ok := c.Get("k")
	if !ok || string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("phantom hit")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}
