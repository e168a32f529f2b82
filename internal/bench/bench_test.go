package bench

import (
	"math"
	"testing"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
)

func TestSpecsMatchPaperTableV(t *testing.T) {
	want := map[string][2]int{ // |L|, n
		"s13207": {50, 58}, "s15850": {19, 22}, "s35932": {246, 323},
		"s38417": {228, 304}, "s38584": {169, 210},
		"ispd09f31": {111, 328}, "ispd09f34": {69, 210},
	}
	specs := Specs()
	if len(specs) != len(want) {
		t.Fatalf("%d specs, want %d", len(specs), len(want))
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected spec %s", s.Name)
			continue
		}
		if s.NumLeaves != w[0] || s.TargetN != w[1] {
			t.Errorf("%s: |L|=%d n=%d, want %d/%d", s.Name, s.NumLeaves, s.TargetN, w[0], w[1])
		}
	}
}

func TestSpecByName(t *testing.T) {
	if _, ok := SpecByName("s35932"); !ok {
		t.Fatal("s35932 missing")
	}
	if _, ok := SpecByName("bogus"); ok {
		t.Fatal("phantom spec")
	}
}

func TestSinksDeterministic(t *testing.T) {
	s, _ := SpecByName("s13207")
	a := s.Sinks()
	b := s.Sinks()
	if len(a) != s.NumLeaves {
		t.Fatalf("sink count %d, want %d", len(a), s.NumLeaves)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sink %d differs across generations", i)
		}
	}
}

func TestSinksWithinDie(t *testing.T) {
	for _, s := range Specs() {
		for i, sk := range s.Sinks() {
			if sk.X < 0 || sk.X > s.DieW || sk.Y < 0 || sk.Y > s.DieH {
				t.Errorf("%s sink %d at (%g,%g) outside %gx%g", s.Name, i, sk.X, sk.Y, s.DieW, s.DieH)
			}
			if sk.Cap < s.MinSinkCap || sk.Cap > s.MaxSinkCap {
				t.Errorf("%s sink %d cap %g outside [%g,%g]", s.Name, i, sk.Cap, s.MinSinkCap, s.MaxSinkCap)
			}
		}
	}
}

func TestSynthesizeMatchesPublishedCounts(t *testing.T) {
	lib := cell.DefaultLibrary()
	opt := cts.DefaultOptions()
	for _, s := range Specs() {
		tree, err := s.Synthesize(lib, opt)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := len(tree.Leaves()); got != s.NumLeaves {
			t.Errorf("%s: %d leaves, want %d", s.Name, got, s.NumLeaves)
		}
		// n is approximate (repeater padding is quantized); within 25 %.
		if got := tree.Len(); math.Abs(float64(got-s.TargetN)) > 0.25*float64(s.TargetN) {
			t.Errorf("%s: n = %d, want ≈%d", s.Name, got, s.TargetN)
		}
		// Pre-assignment skew must be a "zero skew tree" (paper: <10 ps).
		tm := tree.ComputeTiming(clocktree.NominalMode)
		if sk := tm.Skew(tree); sk > 10 {
			t.Errorf("%s: synthesized skew %g ps", s.Name, sk)
		}
	}
}

func TestZoneOccupancy(t *testing.T) {
	// The paper reports average leaves/zone at 50 µm zones: ≈4.3 for
	// ISCAS'89, ≈4.9 for ISPD'09, ≈7.1 for s35932. Verify we land near
	// those (±40 %: placement is random and zones are only partly filled).
	check := func(name string, want float64) {
		s, _ := SpecByName(name)
		sinks := s.Sinks()
		occupied := make(map[[2]int]int)
		for _, sk := range sinks {
			occupied[[2]int{int(sk.X / 50), int(sk.Y / 50)}]++
		}
		avg := float64(len(sinks)) / float64(len(occupied))
		if avg < want*0.6 || avg > want*1.4 {
			t.Errorf("%s: %.2f leaves/zone, want ≈%.1f", name, avg, want)
		}
	}
	check("s13207", 4.3)
	check("s38584", 4.3)
	check("s35932", 7.1)
	check("ispd09f31", 4.9)
}

func TestAssignDomains(t *testing.T) {
	lib := cell.DefaultLibrary()
	s, _ := SpecByName("s15850")
	tree, err := s.Synthesize(lib, cts.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	domains := AssignDomains(tree, s.DieW, s.DieH, 4)
	if len(domains) != 4 {
		t.Fatalf("domains = %v", domains)
	}
	seen := make(map[string]bool)
	tree.Walk(func(n *clocktree.Node) { seen[n.Domain] = true })
	if len(seen) < 2 {
		t.Fatalf("all nodes in one domain: %v", seen)
	}
	for d := range seen {
		found := false
		for _, name := range domains {
			if name == d {
				found = true
			}
		}
		if !found {
			t.Errorf("node domain %q not in declared set", d)
		}
	}
}

// TestAssignDomainsOutsideDie places a design left of the die, as a
// loaded tree with negative coordinates can be: every node joins the
// island of its row at the die's left edge instead of indexing a column
// that does not exist.
func TestAssignDomainsOutsideDie(t *testing.T) {
	lib := cell.DefaultLibrary()
	s, _ := SpecByName("s13207")
	tree, err := s.Synthesize(lib, cts.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	AssignDomains(tree, s.DieW, s.DieH, 4)
	want := make(map[clocktree.NodeID]string)
	tree.Walk(func(n *clocktree.Node) {
		// 4 islands are 2×2: the left column holds pd0 below pd2.
		want[n.ID] = map[string]string{"pd0": "pd0", "pd1": "pd0", "pd2": "pd2", "pd3": "pd2"}[n.Domain]
		n.X -= 3000
	})
	AssignDomains(tree, s.DieW, s.DieH, 4)
	seen := make(map[string]bool)
	tree.Walk(func(n *clocktree.Node) {
		if n.Domain != want[n.ID] {
			t.Fatalf("node %d at x=%g: domain %q, want %q", n.ID, n.X, n.Domain, want[n.ID])
		}
		seen[n.Domain] = true
	})
	if len(seen) != 2 {
		t.Fatalf("islands used: %v, want both of the left column", seen)
	}
}

func TestModes(t *testing.T) {
	s, _ := SpecByName("s13207")
	domains := []string{"pd0", "pd1", "pd2", "pd3"}
	modes := s.Modes(domains, 4)
	if len(modes) != 4 {
		t.Fatalf("%d modes", len(modes))
	}
	// M1 is all-nominal.
	for _, d := range domains {
		if modes[0].VDDOf(d) != 1.1 {
			t.Fatalf("M1 domain %s at %g", d, modes[0].VDDOf(d))
		}
	}
	// Every later mode differs from M1 and uses only {0.9, 1.1}.
	for _, m := range modes[1:] {
		low := 0
		for _, d := range domains {
			v := m.VDDOf(d)
			if v != 0.9 && v != 1.1 {
				t.Fatalf("mode %s domain %s at %g", m.Name, d, v)
			}
			if v == 0.9 {
				low++
			}
		}
		if low == 0 {
			t.Fatalf("mode %s identical to M1", m.Name)
		}
	}
	// Determinism.
	again := s.Modes(domains, 4)
	for i := range modes {
		for _, d := range domains {
			if modes[i].VDDOf(d) != again[i].VDDOf(d) {
				t.Fatal("modes not deterministic")
			}
		}
	}
}
