package mosp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// dupGraph builds a graph where many partial paths land on identical (or
// identically quantized) cost vectors, so the ε-dedup map merges heavily
// and prev chains run through merged slots — the shape that exposed the
// old `*old = *nl` aliasing corruption.
func dupGraph(rng *rand.Rand, layers, width, dim int) *Graph {
	g := &Graph{Baseline: make([]float64, dim)}
	for s := range g.Baseline {
		g.Baseline[s] = float64(rng.Intn(4))
	}
	for i := 0; i < layers; i++ {
		var l []Vertex
		for j := 0; j < width; j++ {
			w := make([]float64, dim)
			for s := range w {
				// Small integer grid → frequent exact-duplicate sums.
				w[s] = float64(rng.Intn(3))
			}
			l = append(l, Vertex{Weight: w})
		}
		g.Layers = append(g.Layers, l)
	}
	return g
}

// TestDedupCollisionPicksStayConsistent is the regression test for the
// shared-label mutation bug: when two labels round to the same Warburton
// key, keeping the better representative must not rewrite a label struct
// that other labels already reference as prev. We force heavy dedup
// (integer weights + coarse ε) and require that the returned Picks both
// reproduce the reported cost exactly and stay within the ε guarantee of
// the exhaustive optimum.
func TestDedupCollisionPicksStayConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		g := dupGraph(rng, 3+rng.Intn(4), 2+rng.Intn(3), 2+rng.Intn(3))
		opt, err := SolveExhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.05, 0.3, 1.0} {
			sol, err := Solve(context.Background(), g, Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if len(sol.Picks) != len(g.Layers) {
				t.Fatalf("trial %d eps=%g: incomplete picks %v", trial, eps, sol.Picks)
			}
			// The picks must reproduce the reported solution exactly: a
			// corrupted prev chain yields picks whose true cost disagrees
			// with the label the solver thought it was returning.
			re := g.solutionFor(sol.Picks)
			if math.Abs(re.Max-sol.Max) > 1e-9 {
				t.Fatalf("trial %d eps=%g: picks %v recompute to %g, solver reported %g",
					trial, eps, sol.Picks, re.Max, sol.Max)
			}
			for s := range re.Cost {
				if math.Abs(re.Cost[s]-sol.Cost[s]) > 1e-9 {
					t.Fatalf("trial %d eps=%g: cost mismatch at %d: %v vs %v",
						trial, eps, s, re.Cost, sol.Cost)
				}
			}
			if sol.Max > opt.Max*(1+eps)+1e-9 || sol.Max < opt.Max-1e-9 {
				t.Fatalf("trial %d eps=%g: %g outside [%g, %g·(1+ε)]",
					trial, eps, sol.Max, opt.Max, opt.Max)
			}
		}
	}
}

// TestDedupKeepsBetterRepresentative checks the merge direction: two
// same-key labels must leave the smaller-max one in the frontier. With a
// single wide layer and huge ε everything shares one key, so Solve must
// still find the layer's best vertex.
func TestDedupKeepsBetterRepresentative(t *testing.T) {
	g := &Graph{
		Baseline: []float64{0, 0},
		Layers: [][]Vertex{{
			{Weight: []float64{9, 9}},
			{Weight: []float64{1, 1}},
			{Weight: []float64{9, 1}},
		}},
	}
	sol, err := Solve(context.Background(), g, Options{Epsilon: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Picks[0] != 1 || sol.Max != 1 {
		t.Fatalf("sol = %+v, want pick 1 max 1", sol)
	}
}

// solveFastReference is the pre-optimization O(|S|·|L|²·W) algorithm:
// every round rescans all remaining layers and picks the vertex with the
// least noise-worsening M, ties broken by lower layer index then lower
// vertex index (strict < on both scans). The lazy-heap SolveFast must
// reproduce its picks exactly, ties included.
func solveFastReference(g *Graph) Solution {
	r := g.Dim()
	sum := make([]float64, r)
	copy(sum, g.Baseline)
	picks := make([]int, len(g.Layers))
	done := make([]bool, len(g.Layers))
	for round := 0; round < len(g.Layers); round++ {
		bestLi, bestVi, bestM := -1, -1, math.Inf(1)
		for li := range g.Layers {
			if done[li] {
				continue
			}
			for vi, v := range g.Layers[li] {
				m := math.Inf(-1)
				for s := 0; s < r; s++ {
					if c := sum[s] + v.Weight[s]; c > m {
						m = c
					}
				}
				if m < bestM {
					bestLi, bestVi, bestM = li, vi, m
				}
			}
		}
		done[bestLi] = true
		picks[bestLi] = bestVi
		for s, w := range g.Layers[bestLi][bestVi].Weight {
			sum[s] += w
		}
	}
	return g.solutionFor(picks)
}

// TestSolveFastMatchesReference differentially verifies the lazy-heap
// rewrite against the naive rescan, on both continuous random graphs and
// integer-grid graphs engineered to produce M ties across layers.
func TestSolveFastMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 80; trial++ {
		var g *Graph
		if trial%2 == 0 {
			g = randGraph(rng, 2+rng.Intn(8), 2+rng.Intn(5), 1+rng.Intn(6), 100)
		} else {
			g = dupGraph(rng, 2+rng.Intn(8), 2+rng.Intn(5), 1+rng.Intn(4))
		}
		want := solveFastReference(g)
		got, err := SolveFast(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Max != want.Max {
			t.Fatalf("trial %d: fast %g vs reference %g", trial, got.Max, want.Max)
		}
		for li := range want.Picks {
			if got.Picks[li] != want.Picks[li] {
				t.Fatalf("trial %d: picks diverge at layer %d: %v vs %v",
					trial, li, got.Picks, want.Picks)
			}
		}
	}
}

// TestFloatArenaStableSlices: slices handed out before a chunk fills must
// stay valid and disjoint as more allocations arrive.
func TestFloatArenaStableSlices(t *testing.T) {
	a := &floatArena{}
	var slices [][]float64
	for i := 0; i < 10_000; i++ {
		s := a.alloc(4)
		for k := range s {
			s[k] = float64(i)
		}
		slices = append(slices, s)
	}
	for i, s := range slices {
		for k := range s {
			if s[k] != float64(i) {
				t.Fatalf("slice %d clobbered: %v", i, s)
			}
		}
	}
	a.reset()
	s := a.alloc(4)
	if len(s) != 4 {
		t.Fatalf("post-reset alloc len %d", len(s))
	}
}

// TestFloatArenaUnalloc: LIFO unalloc reuses the same backing region.
func TestFloatArenaUnalloc(t *testing.T) {
	a := &floatArena{}
	s1 := a.alloc(8)
	a.unalloc(8)
	s2 := a.alloc(8)
	if &s1[0] != &s2[0] {
		t.Fatal("unalloc did not recycle the last allocation")
	}
}

// TestLabelArenaStablePointers: pointers returned before chunk growth must
// remain valid (prev chains depend on it).
func TestLabelArenaStablePointers(t *testing.T) {
	a := &labelArena{}
	var ptrs []*label
	for i := 0; i < 5*labelChunkSize; i++ {
		l := a.alloc()
		l.pick = int32(i)
		ptrs = append(ptrs, l)
	}
	for i, p := range ptrs {
		if p.pick != int32(i) {
			t.Fatalf("label %d moved or clobbered (pick=%d)", i, p.pick)
		}
	}
}

// TestHashQuantizedCollisionCheck: sameQuantized must discriminate vectors
// that differ in quantized coordinates even if a hash collided.
func TestHashQuantizedCollisionCheck(t *testing.T) {
	a := []float64{10, 20, 30}
	b := []float64{10, 20, 31}
	const delta = 1.0
	if !sameQuantized(a, a, delta) {
		t.Fatal("vector must equal itself")
	}
	if sameQuantized(a, b, delta) {
		t.Fatal("distinct quantized vectors reported equal")
	}
	if hashQuantized(a, delta) == hashQuantized(b, delta) {
		t.Fatal("trivially distinct keys should hash apart")
	}
}
