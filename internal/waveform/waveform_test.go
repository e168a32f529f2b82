package waveform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewSortsAndValidates(t *testing.T) {
	w, err := New([]Point{{T: 3, I: 1}, {T: 1, I: 2}, {T: 2, I: 3}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pts := w.Points()
	if pts[0].T != 1 || pts[1].T != 2 || pts[2].T != 3 {
		t.Fatalf("points not sorted: %v", pts)
	}
}

func TestNewRejectsDuplicateTimes(t *testing.T) {
	if _, err := New([]Point{{T: 1, I: 0}, {T: 1, I: 5}}); err == nil {
		t.Fatal("expected error for duplicate times")
	}
}

func TestNewRejectsNonFinite(t *testing.T) {
	cases := [][]Point{
		{{T: math.NaN(), I: 0}},
		{{T: 0, I: math.Inf(1)}},
		{{T: math.Inf(-1), I: 0}},
	}
	for i, pts := range cases {
		if _, err := New(pts); err == nil {
			t.Errorf("case %d: expected error for non-finite sample", i)
		}
	}
}

func TestZeroWaveform(t *testing.T) {
	var w Waveform
	if !w.IsZero() {
		t.Fatal("zero value should be zero waveform")
	}
	if w.At(5) != 0 {
		t.Fatal("zero waveform should evaluate to 0")
	}
	if p, _ := w.Peak(); p != 0 {
		t.Fatal("zero waveform peak should be 0")
	}
	if w.Charge() != 0 {
		t.Fatal("zero waveform charge should be 0")
	}
}

func TestAtInterpolatesLinearly(t *testing.T) {
	w := MustNew([]Point{{T: 0, I: 0}, {T: 10, I: 100}})
	for _, tc := range []struct{ t, want float64 }{
		{0, 0}, {5, 50}, {10, 100}, {2.5, 25},
	} {
		if got := w.At(tc.t); !almostEq(got, tc.want, 1e-12) {
			t.Errorf("At(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestAtOutsideSpanIsZero(t *testing.T) {
	w := MustNew([]Point{{T: 1, I: 5}, {T: 2, I: 5}})
	if w.At(0.999) != 0 || w.At(2.001) != 0 {
		t.Fatal("waveform must be zero outside its span")
	}
	if w.At(1) != 5 || w.At(2) != 5 {
		t.Fatal("waveform must match samples at span edges")
	}
}

func TestAtExactBreakpoints(t *testing.T) {
	w := MustNew([]Point{{T: 0, I: 1}, {T: 1, I: 7}, {T: 2, I: 3}})
	if w.At(1) != 7 {
		t.Fatalf("At breakpoint: got %g want 7", w.At(1))
	}
}

func TestTriangleShape(t *testing.T) {
	w := Triangle(10, 2, 4, 100)
	if got := w.At(10); got != 0 {
		t.Errorf("At(start) = %g, want 0", got)
	}
	if got := w.At(12); got != 100 {
		t.Errorf("At(peak) = %g, want 100", got)
	}
	if got := w.At(16); got != 0 {
		t.Errorf("At(end) = %g, want 0", got)
	}
	if got := w.At(11); !almostEq(got, 50, 1e-12) {
		t.Errorf("At(mid-rise) = %g, want 50", got)
	}
	if got := w.At(14); !almostEq(got, 50, 1e-12) {
		t.Errorf("At(mid-fall) = %g, want 50", got)
	}
	// Area of a triangle: base*height/2.
	if q := w.Charge(); !almostEq(q, 6*100/2, 1e-9) {
		t.Errorf("Charge = %g, want 300", q)
	}
}

func TestTrianglePanicsOnBadEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Triangle(0, 0, 1, 1)
}

func TestShift(t *testing.T) {
	w := Triangle(0, 1, 1, 10)
	s := w.Shift(5)
	if got := s.At(6); got != 10 {
		t.Fatalf("shifted peak: got %g want 10", got)
	}
	if got, want := s.Charge(), w.Charge(); !almostEq(got, want, 1e-12) {
		t.Fatalf("shift changed charge: %g vs %g", got, want)
	}
	if w.At(1) != 10 {
		t.Fatal("Shift must not mutate receiver")
	}
}

func TestScale(t *testing.T) {
	w := Triangle(0, 1, 1, 10)
	s := w.Scale(2.5)
	if p, _ := s.Peak(); !almostEq(p, 25, 1e-12) {
		t.Fatalf("scaled peak: got %g want 25", p)
	}
	if p, _ := w.Peak(); p != 10 {
		t.Fatal("Scale must not mutate receiver")
	}
}

func TestAddExactOnPWL(t *testing.T) {
	a := Triangle(0, 1, 1, 10)
	b := Triangle(1, 1, 1, 10)
	sum := Add(a, b)
	// At t=1: a is at its end (0+... a spans [0,2] peak at 1 => a(1)=10),
	// b starts at 1 => b(1)=0.
	if got := sum.At(1); !almostEq(got, 10, 1e-12) {
		t.Errorf("sum.At(1) = %g, want 10", got)
	}
	// t=1.5: a(1.5)=5, b(1.5)=5.
	if got := sum.At(1.5); !almostEq(got, 10, 1e-12) {
		t.Errorf("sum.At(1.5) = %g, want 10", got)
	}
	if got, want := sum.Charge(), a.Charge()+b.Charge(); !almostEq(got, want, 1e-9) {
		t.Errorf("sum charge %g, want %g", got, want)
	}
}

func TestAddWithZero(t *testing.T) {
	a := Triangle(0, 1, 1, 10)
	if got := Add(a, Waveform{}); !Equal(got, a, 0) {
		t.Fatal("a+0 should equal a")
	}
	if got := Add(Waveform{}, a); !Equal(got, a, 0) {
		t.Fatal("0+a should equal a")
	}
}

func TestSumMatchesPairwiseAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := make([]Waveform, 6)
	for i := range ws {
		ws[i] = Triangle(rng.Float64()*10, 0.5+rng.Float64(), 0.5+rng.Float64(), rng.Float64()*100)
	}
	sum := Sum(ws...)
	var pair Waveform
	for _, w := range ws {
		pair = Add(pair, w)
	}
	if !Equal(sum, pair, 1e-9) {
		t.Fatal("Sum disagrees with pairwise Add")
	}
}

func TestPeak(t *testing.T) {
	w := Sum(Triangle(0, 1, 1, 10), Triangle(3, 1, 1, 20))
	p, at := w.Peak()
	if !almostEq(p, 20, 1e-12) || !almostEq(at, 4, 1e-12) {
		t.Fatalf("Peak = (%g,%g), want (20,4)", p, at)
	}
}

func TestClip(t *testing.T) {
	w := Triangle(0, 2, 2, 10)
	c := w.Clip(1, 3)
	if got := c.At(1); !almostEq(got, 5, 1e-12) {
		t.Errorf("clip left edge: %g want 5", got)
	}
	if got := c.At(2); !almostEq(got, 10, 1e-12) {
		t.Errorf("clip inner: %g want 10", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("clip must zero outside: %g", got)
	}
	if !w.Clip(3, 1).IsZero() {
		t.Error("inverted clip window should be zero waveform")
	}
}

func TestEqualTolerance(t *testing.T) {
	a := Triangle(0, 1, 1, 10)
	b := Triangle(0, 1, 1, 10.5)
	if Equal(a, b, 0.1) {
		t.Fatal("waveforms differing by 0.5 equal at tol 0.1")
	}
	if !Equal(a, b, 0.6) {
		t.Fatal("waveforms differing by 0.5 not equal at tol 0.6")
	}
}

func TestStringSummaries(t *testing.T) {
	var z Waveform
	if z.String() != "waveform{zero}" {
		t.Errorf("zero String: %q", z.String())
	}
	w := Triangle(0, 1, 1, 10)
	if w.String() == "" || w.Table() == "" {
		t.Error("empty String/Table")
	}
}

// Property: Add is commutative and associative (within fp tolerance).
func TestPropertyAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Triangle(rng.Float64()*20, 0.1+rng.Float64(), 0.1+rng.Float64(), rng.Float64()*50)
		b := Triangle(rng.Float64()*20, 0.1+rng.Float64(), 0.1+rng.Float64(), rng.Float64()*50)
		return Equal(Add(a, b), Add(b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Shift preserves peak value and charge; At commutes with Shift.
func TestPropertyShiftInvariants(t *testing.T) {
	f := func(seed int64, rawDt float64) bool {
		rng := rand.New(rand.NewSource(seed))
		dt := math.Mod(rawDt, 1e6)
		if math.IsNaN(dt) || math.IsInf(dt, 0) {
			dt = 1
		}
		w := Triangle(rng.Float64()*20, 0.1+rng.Float64(), 0.1+rng.Float64(), rng.Float64()*50)
		s := w.Shift(dt)
		p0, a0 := w.Peak()
		p1, a1 := s.Peak()
		if !almostEq(p0, p1, 1e-9) {
			return false
		}
		if !almostEq(a0+dt, a1, 1e-6) {
			return false
		}
		return almostEq(w.Charge(), s.Charge(), 1e-6*math.Max(1, math.Abs(w.Charge())))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Charge is additive under Add.
func TestPropertyChargeAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Triangle(rng.Float64()*20, 0.1+rng.Float64(), 0.1+rng.Float64(), rng.Float64()*50)
		b := Triangle(rng.Float64()*20, 0.1+rng.Float64(), 0.1+rng.Float64(), rng.Float64()*50)
		got := Add(a, b).Charge()
		want := a.Charge() + b.Charge()
		return almostEq(got, want, 1e-6*math.Max(1, math.Abs(want)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: peak of sum ≤ sum of peaks (superposition bound the polarity
// assignment exploits).
func TestPropertyPeakSubadditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Triangle(rng.Float64()*20, 0.1+rng.Float64(), 0.1+rng.Float64(), rng.Float64()*50)
		b := Triangle(rng.Float64()*20, 0.1+rng.Float64(), 0.1+rng.Float64(), rng.Float64()*50)
		pa, _ := a.Peak()
		pb, _ := b.Peak()
		ps, _ := Add(a, b).Peak()
		return ps <= pa+pb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
