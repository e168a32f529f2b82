package mosp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tinyGraph: 2 layers × 2 options, dim 2. Option weights chosen so the
// min–max optimum mixes "polarities".
func tinyGraph() *Graph {
	return &Graph{
		Baseline: []float64{5, 5},
		Layers: [][]Vertex{
			{{Weight: []float64{10, 1}}, {Weight: []float64{1, 10}}},
			{{Weight: []float64{10, 1}}, {Weight: []float64{1, 10}}},
		},
	}
}

func randGraph(rng *rand.Rand, layers, width, dim int, scale float64) *Graph {
	g := &Graph{Baseline: make([]float64, dim)}
	for s := range g.Baseline {
		g.Baseline[s] = rng.Float64() * scale
	}
	for i := 0; i < layers; i++ {
		var l []Vertex
		for j := 0; j < width; j++ {
			w := make([]float64, dim)
			for s := range w {
				w[s] = rng.Float64() * scale
			}
			l = append(l, Vertex{Weight: w})
		}
		g.Layers = append(g.Layers, l)
	}
	return g
}

func TestValidate(t *testing.T) {
	g := tinyGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tinyGraph()
	bad.Layers[0] = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty layer should fail")
	}
	bad2 := tinyGraph()
	bad2.Layers[1][0].Weight = []float64{1}
	if err := bad2.Validate(); err == nil {
		t.Error("dim mismatch should fail")
	}
	bad3 := tinyGraph()
	bad3.Baseline[0] = math.NaN()
	if err := bad3.Validate(); err == nil {
		t.Error("NaN baseline should fail")
	}
	bad4 := tinyGraph()
	bad4.Layers[0][0].Weight[0] = -1
	if err := bad4.Validate(); err == nil {
		t.Error("negative weight should fail")
	}
	var empty Graph
	if err := empty.Validate(); err == nil {
		t.Error("empty graph should fail")
	}
}

func TestTinyOptimum(t *testing.T) {
	// Mixing the two "polarities" yields cost (5+10+1, 5+1+10) = (16,16)
	// → max 16. Same-polarity picks give (25,7) → max 25.
	g := tinyGraph()
	for name, solve := range map[string]func(*Graph) (Solution, error){
		"exhaustive": SolveExhaustive,
		"greedy":     SolveGreedy,
		"fast":       func(g *Graph) (Solution, error) { return SolveFast(context.Background(), g) },
		"solve":      func(g *Graph) (Solution, error) { return Solve(context.Background(), g, Options{Epsilon: 0.01}) },
	} {
		sol, err := solve(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Max-16) > 1e-9 {
			t.Errorf("%s: max = %g, want 16 (picks %v)", name, sol.Max, sol.Picks)
		}
		if sol.Picks[0] == sol.Picks[1] {
			t.Errorf("%s: optimum must mix polarities, got %v", name, sol.Picks)
		}
	}
}

func TestSolutionCostIncludesBaseline(t *testing.T) {
	g := tinyGraph()
	sol, err := Solve(context.Background(), g, Options{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Cost) != 2 {
		t.Fatal("bad cost dim")
	}
	// Both coordinates ≥ baseline.
	if sol.Cost[0] < 5 || sol.Cost[1] < 5 {
		t.Fatalf("cost %v misses baseline", sol.Cost)
	}
}

func TestSolveMatchesExhaustiveExactly(t *testing.T) {
	// ε = 0 → exact Pareto DP → identical optimum to brute force.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		g := randGraph(rng, 2+rng.Intn(4), 2+rng.Intn(3), 1+rng.Intn(5), 100)
		want, err := SolveExhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(context.Background(), g, Options{Epsilon: 0})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Max-want.Max) > 1e-9 {
			t.Fatalf("trial %d: Solve %g vs exhaustive %g", trial, got.Max, want.Max)
		}
	}
}

func TestSolveWithinEpsilonOfOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, eps := range []float64{0.01, 0.1, 0.5} {
		for trial := 0; trial < 25; trial++ {
			g := randGraph(rng, 2+rng.Intn(5), 2+rng.Intn(4), 1+rng.Intn(6), 50)
			opt, err := SolveExhaustive(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Solve(context.Background(), g, Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			if got.Max > opt.Max*(1+eps)+1e-9 {
				t.Fatalf("eps=%g trial %d: %g exceeds (1+ε)·%g", eps, trial, got.Max, opt.Max)
			}
			if got.Max < opt.Max-1e-9 {
				t.Fatalf("eps=%g trial %d: %g below optimum %g (unsound)", eps, trial, got.Max, opt.Max)
			}
		}
	}
}

func TestGreedyAndFastAreUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := randGraph(rng, 2+rng.Intn(4), 2+rng.Intn(3), 1+rng.Intn(4), 50)
		opt, err := SolveExhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		for name, solve := range map[string]func(*Graph) (Solution, error){
			"greedy": SolveGreedy, "fast": func(g *Graph) (Solution, error) { return SolveFast(context.Background(), g) },
		} {
			sol, err := solve(g)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Max < opt.Max-1e-9 {
				t.Fatalf("%s trial %d: heuristic %g below optimum %g", name, trial, sol.Max, opt.Max)
			}
		}
	}
}

func TestFastNeverWorseThanWorstPath(t *testing.T) {
	// ClkWaveMin-f must at least beat the max-ordering worst case: verify
	// it is never worse than picking the per-layer max-weight vertex.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := randGraph(rng, 3, 3, 4, 50)
		fast, err := SolveFast(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		worstPicks := make([]int, len(g.Layers))
		for li, layer := range g.Layers {
			worst, wmax := 0, -1.0
			for vi, v := range layer {
				if m := maxOf(v.Weight); m > wmax {
					worst, wmax = vi, m
				}
			}
			worstPicks[li] = worst
		}
		worst := g.solutionFor(worstPicks)
		if fast.Max > worst.Max+1e-9 {
			t.Fatalf("trial %d: fast %g worse than worst-path %g", trial, fast.Max, worst.Max)
		}
	}
}

func TestExhaustiveRefusesHugeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randGraph(rng, 10, 8, 2, 10) // 8^10 paths
	if _, err := SolveExhaustive(g); err == nil {
		t.Fatal("expected refusal")
	}
}

func TestSingleLayerSingleVertex(t *testing.T) {
	g := &Graph{
		Baseline: []float64{1, 2},
		Layers:   [][]Vertex{{{Weight: []float64{3, 0}}}},
	}
	sol, err := Solve(context.Background(), g, Options{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Max != 4 || sol.Picks[0] != 0 {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestNilBaselineTreatedAsZero(t *testing.T) {
	g := &Graph{Layers: [][]Vertex{{{Weight: []float64{2, 3}}}}}
	sol, err := Solve(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Max != 3 {
		t.Fatalf("max = %g, want 3", sol.Max)
	}
}

func TestMaxLabelsSafetyValveStillFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGraph(rng, 6, 4, 8, 50)
	sol, err := Solve(context.Background(), g, Options{Epsilon: 0, MaxLabels: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Must return a feasible (complete) solution, upper-bounding nothing.
	if len(sol.Picks) != 6 {
		t.Fatalf("picks %v", sol.Picks)
	}
	greedy, _ := SolveGreedy(g)
	if sol.Max > greedy.Max+1e-9 {
		t.Fatalf("capped solve %g worse than greedy %g", sol.Max, greedy.Max)
	}
}

func TestNegativeEpsilonRejected(t *testing.T) {
	if _, err := Solve(context.Background(), tinyGraph(), Options{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon should error")
	}
}

func TestParetoSizeShrinksWithEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randGraph(rng, 5, 4, 3, 100)
	exact, err := ParetoSize(g, Options{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := ParetoSize(g, Options{Epsilon: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if coarse > exact {
		t.Fatalf("coarser rounding grew the frontier: %d > %d", coarse, exact)
	}
	if exact < 1 || coarse < 1 {
		t.Fatal("frontiers must be non-empty")
	}
}

// Property: Solve's result is invariant under coordinate permutation of
// all weights (min–max is symmetric in the sample axis).
func TestPropertyPermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(4)
		g := randGraph(rng, 3, 3, dim, 50)
		perm := rng.Perm(dim)
		pg := &Graph{Baseline: permute(g.Baseline, perm)}
		for _, l := range g.Layers {
			var nl []Vertex
			for _, v := range l {
				nl = append(nl, Vertex{Weight: permute(v.Weight, perm)})
			}
			pg.Layers = append(pg.Layers, nl)
		}
		a, err1 := Solve(context.Background(), g, Options{Epsilon: 0})
		b, err2 := Solve(context.Background(), pg, Options{Epsilon: 0})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.Max-b.Max) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a constant to the baseline raises the optimum by at
// most that constant (and at least 0).
func TestPropertyBaselineMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 3, 3, 3, 50)
		a, err := Solve(context.Background(), g, Options{Epsilon: 0})
		if err != nil {
			return false
		}
		const bump = 10
		g2 := &Graph{Baseline: append([]float64(nil), g.Baseline...), Layers: g.Layers}
		for i := range g2.Baseline {
			g2.Baseline[i] += bump
		}
		b, err := Solve(context.Background(), g2, Options{Epsilon: 0})
		if err != nil {
			return false
		}
		return b.Max >= a.Max-1e-9 && b.Max <= a.Max+bump+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func permute(v []float64, perm []int) []float64 {
	out := make([]float64, len(v))
	for i, p := range perm {
		out[i] = v[p]
	}
	return out
}
