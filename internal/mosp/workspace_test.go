package mosp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"wavemin/internal/faultinject"
)

// benchGraph is BenchmarkMOSPSolve's instance: 7 layers × 4 vertices × 32
// samples of deterministic integer weights.
func benchGraph() *Graph {
	g := &Graph{Baseline: make([]float64, 32)}
	for l := 0; l < 7; l++ {
		var layer []Vertex
		for v := 0; v < 4; v++ {
			w := make([]float64, 32)
			for s := range w {
				w[s] = float64((l*7+v*13+s*3)%50) + 1
			}
			layer = append(layer, Vertex{Weight: w})
		}
		g.Layers = append(g.Layers, layer)
	}
	return g
}

// TestSolveAllocs pins the pooled workspace: once a warm-up solve has
// filled the pool, a repeated Solve allocates its result, the greedy
// incumbent and the sort closures — never fresh arenas, label chunks or
// frontier slices.
func TestSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	// One P, so every Get finds the workspace the previous Put left in
	// that P's private slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := benchGraph()
	for _, eps := range []float64{0, 0.01} {
		solve := func() {
			if _, err := Solve(context.Background(), g, Options{Epsilon: eps}); err != nil {
				t.Fatal(err)
			}
		}
		solve()
		if allocs := testing.AllocsPerRun(5, solve); allocs > 24 {
			t.Errorf("ε=%g: %v allocs per Solve, want ≤ 24", eps, allocs)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			solve()
		}
		runtime.ReadMemStats(&after)
		if perSolve := (after.TotalAlloc - before.TotalAlloc) / runs; perSolve > 16<<10 {
			t.Errorf("ε=%g: %d bytes allocated per Solve, want ≤ 16 KiB", eps, perSolve)
		}
	}
}

// lineGraph draws vertices (x, 10−x, x, 10−x): every path's coordinates
// sum to the same total, so no label dominates another and the frontier
// outgrows everything a pooled workspace keeps.
func lineGraph(rng *rand.Rand, layers, width int) *Graph {
	g := &Graph{Baseline: make([]float64, 4)}
	for i := 0; i < layers; i++ {
		var l []Vertex
		for j := 0; j < width; j++ {
			x := rng.Float64() * 10
			l = append(l, Vertex{Weight: []float64{x, 10 - x, x, 10 - x}})
		}
		g.Layers = append(g.Layers, l)
	}
	return g
}

type wsCase struct {
	name string
	g    *Graph
	opt  Options
	want Solution
}

func (c *wsCase) check(ctx context.Context) error {
	got, err := Solve(ctx, c.g, c.opt)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if !slices.Equal(got.Picks, c.want.Picks) ||
		math.Float64bits(got.Max) != math.Float64bits(c.want.Max) ||
		!slices.EqualFunc(got.Cost, c.want.Cost, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
		return fmt.Errorf("%s: got picks %v max %v, solo solve gave %v max %v",
			c.name, got.Picks, got.Max, c.want.Picks, c.want.Max)
	}
	return nil
}

// TestParallelWorkspaceReuse: whatever ran on a pooled workspace before —
// a graph of another dimension, a frontier too big to keep, a capped
// solve, a cancelled or panicking one — every Solve returns exactly its
// solo answer, sequentially and from concurrent goroutines.
func TestParallelWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cases := []*wsCase{
		{name: "r4", g: randGraph(rng, 6, 4, 4, 50)},
		{name: "r4-line", g: lineGraph(rng, 9, 4)},
		{name: "r32", g: randGraph(rng, 6, 6, 32, 50)},
		{name: "r32-eps", g: randGraph(rng, 6, 4, 32, 50), opt: Options{Epsilon: 0.01}},
		{name: "r32-capped", g: randGraph(rng, 6, 4, 32, 50), opt: Options{MaxLabels: 16}},
		{name: "r158-nil-baseline", g: randGraph(rng, 4, 4, 158, 50)},
		{name: "r158-eps", g: randGraph(rng, 5, 4, 158, 50), opt: Options{Epsilon: 0.05}},
	}
	// Arena memory is recycled, not zeroed: a nil baseline must still
	// start every path from zero.
	cases[5].g.Baseline = nil
	ctx := context.Background()
	for _, c := range cases {
		sol, err := Solve(ctx, c.g, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.want = sol
		// The solo answers ran on pooled workspaces too: anchor the exact
		// ones small enough to enumerate to the brute-force optimum.
		if c.opt == (Options{}) {
			if ex, err := SolveExhaustive(c.g); err == nil && math.Abs(sol.Max-ex.Max) > 1e-9 {
				t.Fatalf("%s: solo max %g, exhaustive optimum %g", c.name, sol.Max, ex.Max)
			}
		}
	}
	shuffled := func(rng *rand.Rand, copies int) []*wsCase {
		var order []*wsCase
		for i := 0; i < copies; i++ {
			order = append(order, cases...)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order
	}
	checkAll := func(order []*wsCase) {
		t.Helper()
		for _, c := range order {
			if err := c.check(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	checkAll(shuffled(rng, 2))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		order := shuffled(rand.New(rand.NewSource(int64(w))), 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range order {
				if err := c.check(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Hooks are global, so the interrupted solves run alone: a context
	// cancelled at the third layer, then a panic at the third layer. Each
	// leaves a half-built workspace in the pool for the solves after it.
	t.Cleanup(func() { faultinject.Clear(faultinject.SiteMospSolveLayer) })
	big := cases[1]
	cctx, cancel := context.WithCancel(ctx)
	layers := 0
	faultinject.Set(faultinject.SiteMospSolveLayer, func() {
		if layers++; layers == 3 {
			cancel()
		}
	})
	_, err := Solve(cctx, big.g, big.opt)
	faultinject.Clear(faultinject.SiteMospSolveLayer)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
	}
	checkAll(shuffled(rng, 1))

	layers = 0
	faultinject.Set(faultinject.SiteMospSolveLayer, func() {
		if layers++; layers == 3 {
			panic("injected")
		}
	})
	func() {
		defer func() {
			if r := recover(); r != "injected" {
				t.Errorf("recovered %v, want the injected panic", r)
			}
		}()
		_, _ = Solve(ctx, big.g, big.opt)
	}()
	faultinject.Clear(faultinject.SiteMospSolveLayer)
	checkAll(shuffled(rng, 1))
}

// TestWorkspaceReleaseBounds: whatever a solve grew, the workspace it
// hands back keeps at most the retention caps, and nothing it keeps still
// points at the labels or cost vectors of the solve — or those would stay
// live in the pool.
func TestWorkspaceReleaseBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, g := range []*Graph{lineGraph(rng, 9, 4), lineGraph(rng, 8, 4)} {
		greedy, err := SolveGreedy(g)
		if err != nil {
			t.Fatal(err)
		}
		ws := &workspace{}
		if _, err := ws.expand(context.Background(), g, Options{MaxLabels: DefaultMaxLabels}, greedy.Max, false, nil); err != nil {
			t.Fatal(err)
		}
		grown := len(ws.labels.chunks)
		ws.release()
		if grown <= keepLabelChunks {
			t.Fatalf("instance grew only %d label chunks; it must outgrow the cap", grown)
		}
		for i := range ws.arenas {
			if n := len(ws.arenas[i].chunks); n > keepFloatChunks {
				t.Errorf("float arena %d kept %d chunks, cap %d", i, n, keepFloatChunks)
			}
		}
		if n := len(ws.labels.chunks); n > keepLabelChunks {
			t.Errorf("label slab kept %d chunks, cap %d", n, keepLabelChunks)
		}
		for _, c := range ws.labels.chunks {
			for _, lb := range c[:cap(c)] {
				if lb.cost != nil || lb.prev != nil {
					t.Fatalf("kept label still references solve memory: %+v", lb)
				}
			}
		}
		if max(cap(ws.frontier), cap(ws.next)) > keepLabelPtrs {
			t.Errorf("kept frontier/next capacity %d/%d, cap %d", cap(ws.frontier), cap(ws.next), keepLabelPtrs)
		}
		for _, s := range [][]*label{ws.frontier, ws.next} {
			for _, p := range s[:cap(s)] {
				if p != nil {
					t.Fatal("kept frontier/next slot still points at a label")
				}
			}
		}
	}
}
