package peakmin

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randLayers(rng *rand.Rand, layers, width int) [][]Option {
	out := make([][]Option, layers)
	for i := range out {
		l := make([]Option, width)
		hasBuf, hasInv := false, false
		for j := range l {
			l[j] = Option{Peak: 10 + rng.Float64()*200, IsBuffer: rng.Intn(2) == 0}
			if l[j].IsBuffer {
				hasBuf = true
			} else {
				hasInv = true
			}
		}
		// Guarantee both polarities available (mirrors real libraries).
		if !hasBuf {
			l[0].IsBuffer = true
		}
		if !hasInv {
			l[width-1].IsBuffer = false
		}
		out[i] = l
	}
	return out
}

func TestTwoSinksBalance(t *testing.T) {
	// Two sinks, each can be a 100 µA buffer or a 100 µA inverter. The
	// optimum splits them: max(100,100)=100 vs max(200,0)=200.
	layers := [][]Option{
		{{Peak: 100, IsBuffer: true}, {Peak: 100, IsBuffer: false}},
		{{Peak: 100, IsBuffer: true}, {Peak: 100, IsBuffer: false}},
	}
	sol, err := Solve(context.Background(), layers, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Max-100) > 1e-9 {
		t.Fatalf("max = %g, want 100 (picks %v)", sol.Max, sol.Picks)
	}
	if layers[0][sol.Picks[0]].IsBuffer == layers[1][sol.Picks[1]].IsBuffer {
		t.Fatal("optimum must mix polarities")
	}
}

func TestSizingPreferred(t *testing.T) {
	// One sink: a small buffer (50) beats a big buffer (100) and a big
	// inverter (80).
	layers := [][]Option{{
		{Peak: 100, IsBuffer: true},
		{Peak: 50, IsBuffer: true},
		{Peak: 80, IsBuffer: false},
	}}
	sol, err := Solve(context.Background(), layers, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Picks[0] != 1 {
		t.Fatalf("picked %d, want the 50 µA buffer", sol.Picks[0])
	}
}

func TestMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		layers := randLayers(rng, 2+rng.Intn(5), 2+rng.Intn(4))
		want, err := SolveExhaustive(layers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(context.Background(), layers, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		// Fine discretization: within 1 % of the true optimum.
		if got.Max > want.Max*1.01+1e-9 || got.Max < want.Max-1e-9 {
			t.Fatalf("trial %d: DP %g vs exhaustive %g", trial, got.Max, want.Max)
		}
	}
}

func TestSolutionConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layers := randLayers(rng, 6, 4)
	sol, err := Solve(context.Background(), layers, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf, inv float64
	for li, pi := range sol.Picks {
		o := layers[li][pi]
		if o.IsBuffer {
			buf += o.Peak
		} else {
			inv += o.Peak
		}
	}
	if math.Abs(buf-sol.BufSum) > 1e-9 || math.Abs(inv-sol.InvSum) > 1e-9 {
		t.Fatalf("reported sums inconsistent with picks: %g/%g vs %g/%g", sol.BufSum, sol.InvSum, buf, inv)
	}
	if sol.Max != math.Max(buf, inv) {
		t.Fatal("Max inconsistent")
	}
}

func TestErrors(t *testing.T) {
	if _, err := Solve(context.Background(), nil, 1); err == nil {
		t.Error("nil layers should error")
	}
	if _, err := Solve(context.Background(), [][]Option{{}}, 1); err == nil {
		t.Error("empty layer should error")
	}
	if _, err := Solve(context.Background(), [][]Option{{{Peak: math.NaN(), IsBuffer: true}}}, 1); err == nil {
		t.Error("NaN peak should error")
	}
	if _, err := SolveExhaustive(nil); err == nil {
		t.Error("exhaustive nil should error")
	}
	big := randLayers(rand.New(rand.NewSource(1)), 12, 6)
	if _, err := SolveExhaustive(big); err == nil {
		t.Error("exhaustive should refuse huge instances")
	}
}

func TestAllInvertersLayer(t *testing.T) {
	// Degenerate but legal: a layer offering only inverters.
	layers := [][]Option{
		{{Peak: 60, IsBuffer: false}, {Peak: 40, IsBuffer: false}},
	}
	sol, err := Solve(context.Background(), layers, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Picks[0] != 1 || sol.Max != 40 {
		t.Fatalf("sol %+v", sol)
	}
}

// Property: DP optimum never exceeds any single fixed assignment.
func TestPropertyUpperBoundedByAnyAssignment(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := randLayers(rng, 2+rng.Intn(4), 2+rng.Intn(3))
		sol, err := Solve(context.Background(), layers, 0.05)
		if err != nil {
			return false
		}
		// Compare against 5 random assignments.
		for k := 0; k < 5; k++ {
			var buf, inv float64
			for _, l := range layers {
				o := l[rng.Intn(len(l))]
				if o.IsBuffer {
					buf += o.Peak
				} else {
					inv += o.Peak
				}
			}
			if sol.Max > math.Max(buf, inv)*1.01+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
