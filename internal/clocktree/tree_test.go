package clocktree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wavemin/internal/cell"
)

// buildBalanced builds a depth-2 tree: root buffer driving two mid buffers
// each driving two leaf buffers with FF loads. Wire parasitics uniform.
func buildBalanced(t testing.TB) (*Tree, *cell.Library) {
	lib := cell.DefaultLibrary()
	buf8 := lib.MustByName("BUF_X8")
	buf4 := lib.MustByName("BUF_X4")
	tr := New(lib.MustByName("BUF_X16"), 50, 50)
	m1 := tr.AddChild(tr.Root(), buf8, 25, 50, 0.1, 20)
	m2 := tr.AddChild(tr.Root(), buf8, 75, 50, 0.1, 20)
	for _, m := range []NodeID{m1, m2} {
		for i := 0; i < 2; i++ {
			leaf := tr.AddChild(m, buf4, float64(10+60*i), 25, 0.05, 10)
			tr.SetSinkCap(leaf, 8)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr, lib
}

func TestTreeStructure(t *testing.T) {
	tr, _ := buildBalanced(t)
	if tr.Len() != 7 {
		t.Fatalf("Len = %d, want 7", tr.Len())
	}
	if got := len(tr.Leaves()); got != 4 {
		t.Fatalf("leaves = %d, want 4", got)
	}
	if got := len(tr.NonLeaves()); got != 3 {
		t.Fatalf("non-leaves = %d, want 3", got)
	}
	count := 0
	tr.Walk(func(n *Node) { count++ })
	if count != 7 {
		t.Fatalf("Walk visited %d, want 7", count)
	}
	leaf := tr.Leaves()[0]
	path := tr.PathToRoot(leaf)
	if len(path) != 3 || path[len(path)-1] != tr.Root() {
		t.Fatalf("path = %v", path)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr, _ := buildBalanced(t)
	tr.Node(3).Parent = 99
	if err := tr.Validate(); err == nil {
		t.Fatal("bad parent should fail validation")
	}
	tr2, _ := buildBalanced(t)
	tr2.Node(2).Cell = nil
	if err := tr2.Validate(); err == nil {
		t.Fatal("missing cell should fail validation")
	}
}

func TestPolarityParity(t *testing.T) {
	tr, lib := buildBalanced(t)
	inv := lib.MustByName("INV_X4")
	leaves := tr.Leaves()
	if !tr.PolarityOf(leaves[0]) {
		t.Fatal("all-buffer tree must have positive leaves")
	}
	tr.SetCell(leaves[0], inv)
	if tr.PolarityOf(leaves[0]) {
		t.Fatal("inverter leaf must be negative")
	}
	// Inverter at the mid node flips its subtree's leaves.
	mid := tr.Node(leaves[1]).Parent
	tr.SetCell(mid, lib.MustByName("INV_X8"))
	if tr.PolarityOf(leaves[1]) {
		t.Fatal("leaf under one inverter must be negative")
	}
	// Leaf 0 sits under the other mid; unaffected... unless same mid.
	if tr.Node(leaves[0]).Parent == mid {
		// leaf0 has its own inverter AND an inverting parent: positive again.
		if !tr.PolarityOf(leaves[0]) {
			t.Fatal("two inversions must cancel")
		}
	}
}

func TestEdgeAtInput(t *testing.T) {
	tr, lib := buildBalanced(t)
	leaf := tr.Leaves()[0]
	if tr.EdgeAtInput(leaf, cell.Rising) != cell.Rising {
		t.Fatal("buffer-only path must preserve edge")
	}
	// The leaf's own cell must NOT affect its input edge.
	tr.SetCell(leaf, lib.MustByName("INV_X4"))
	if tr.EdgeAtInput(leaf, cell.Rising) != cell.Rising {
		t.Fatal("leaf's own inverter must not flip its input edge")
	}
	// An inverting ancestor does.
	tr.SetCell(tr.Node(leaf).Parent, lib.MustByName("INV_X8"))
	if tr.EdgeAtInput(leaf, cell.Rising) != cell.Falling {
		t.Fatal("inverting parent must flip the input edge")
	}
}

func TestTimingMonotoneDownTree(t *testing.T) {
	tr, _ := buildBalanced(t)
	tm := tr.ComputeTiming(NominalMode)
	tr.Walk(func(n *Node) {
		if n.Parent == NoNode {
			return
		}
		if tm.ATIn[n.ID] < tm.ATOut[n.Parent] {
			t.Errorf("node %d: ATIn %g before parent ATOut %g", n.ID, tm.ATIn[n.ID], tm.ATOut[n.Parent])
		}
		if tm.ATOut[n.ID] <= tm.ATIn[n.ID] {
			t.Errorf("node %d: non-positive cell delay", n.ID)
		}
	})
}

func TestBalancedTreeHasZeroSkew(t *testing.T) {
	tr, _ := buildBalanced(t)
	tm := tr.ComputeTiming(NominalMode)
	if s := tm.Skew(tr); s > 1e-9 {
		t.Fatalf("symmetric tree skew = %g, want 0", s)
	}
}

func TestResizingLeafChangesSkew(t *testing.T) {
	tr, lib := buildBalanced(t)
	tr.SetCell(tr.Leaves()[0], lib.MustByName("BUF_X16"))
	tm := tr.ComputeTiming(NominalMode)
	if s := tm.Skew(tr); s <= 0 {
		t.Fatalf("resized leaf should introduce skew, got %g", s)
	}
}

func TestLowVDDSlowsSubtree(t *testing.T) {
	tr, _ := buildBalanced(t)
	leaves := tr.Leaves()
	island := tr.Node(leaves[2]).Parent
	tr.SetDomainSubtree(island, "islandA")
	mode := Mode{Name: "lowA", Supplies: map[string]float64{"islandA": 0.9}}
	tmN := tr.ComputeTiming(NominalMode)
	tmL := tr.ComputeTiming(mode)
	if tmL.ATOut[leaves[2]] <= tmN.ATOut[leaves[2]] {
		t.Fatal("0.9 V island leaf should be slower")
	}
	// Leaves outside the island keep their arrival (root/parent unaffected).
	outside := leaves[0]
	if math.Abs(tmL.ATOut[outside]-tmN.ATOut[outside]) > 1e-9 {
		t.Fatal("leaf outside island moved")
	}
	if tmL.Skew(tr) <= tmN.Skew(tr) {
		t.Fatal("voltage island must create skew")
	}
}

func TestSkewAcrossModesAndMeetsSkew(t *testing.T) {
	tr, _ := buildBalanced(t)
	island := tr.Node(tr.Leaves()[2]).Parent
	tr.SetDomainSubtree(island, "islandA")
	modes := []Mode{
		NominalMode,
		{Name: "low", Supplies: map[string]float64{"islandA": 0.9}},
	}
	worst, in := tr.SkewAcrossModes(modes)
	if in.Name != "low" || worst <= 0 {
		t.Fatalf("worst skew %g in %q", worst, in.Name)
	}
	if !tr.MeetsSkew(worst+1, modes) {
		t.Fatal("MeetsSkew false above worst")
	}
	if tr.MeetsSkew(worst-1, modes) {
		t.Fatal("MeetsSkew true below worst")
	}
}

func TestADBSettingsPerMode(t *testing.T) {
	tr, lib := buildBalanced(t)
	leaf := tr.Leaves()[0]
	adb := lib.MustByName("ADB_X8")
	tr.SetCell(leaf, adb)
	tr.SetAdjustSteps(leaf, "m2", 5)
	tmNom := tr.ComputeTiming(NominalMode)
	tmM2 := tr.ComputeTiming(Mode{Name: "m2"})
	wantDelta := 5 * adb.StepPs
	got := tmM2.ATOut[leaf] - tmNom.ATOut[leaf]
	if math.Abs(got-wantDelta) > 1e-9 {
		t.Fatalf("ADB per-mode delta = %g, want %g", got, wantDelta)
	}
}

func TestSetAdjustStepsPanics(t *testing.T) {
	tr, lib := buildBalanced(t)
	leaf := tr.Leaves()[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-adjustable cell should panic")
			}
		}()
		tr.SetAdjustSteps(leaf, "m", 1)
	}()
	tr.SetCell(leaf, lib.MustByName("ADB_X8"))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range steps should panic")
			}
		}()
		tr.SetAdjustSteps(leaf, "m", 999)
	}()
}

func TestCloneIndependence(t *testing.T) {
	tr, lib := buildBalanced(t)
	leaf := tr.Leaves()[0]
	tr.SetCell(leaf, lib.MustByName("ADB_X8"))
	tr.SetAdjustSteps(leaf, "m", 3)
	cp := tr.Clone()
	cp.SetCell(leaf, lib.MustByName("BUF_X4"))
	cp.Node(tr.Leaves()[1]).SinkCap = 999
	if tr.Node(leaf).Cell.Name != "ADB_X8" {
		t.Fatal("clone mutation leaked into original (cell)")
	}
	if tr.Node(tr.Leaves()[1]).SinkCap == 999 {
		t.Fatal("clone mutation leaked into original (sink cap)")
	}
	if cp.Node(leaf).AdjustSteps["m"] != 3 {
		t.Fatal("clone lost ADB settings")
	}
}

func TestCurrentsAlignToArrivals(t *testing.T) {
	tr, _ := buildBalanced(t)
	tm := tr.ComputeTiming(NominalMode)
	leaf := tr.Leaves()[0]
	idd, _ := tr.NodeCurrents(tm, leaf, cell.Rising)
	_, at := idd.Peak()
	// Peak IDD should land near the leaf's output switching time.
	if at < tm.ATIn[leaf] || at > tm.ATOut[leaf]+50 {
		t.Fatalf("leaf current peak at %g outside [%g, %g+50]", at, tm.ATIn[leaf], tm.ATOut[leaf])
	}
}

func TestLeafPlusNonLeafEqualsTree(t *testing.T) {
	tr, lib := buildBalanced(t)
	tr.SetCell(tr.Leaves()[1], lib.MustByName("INV_X4"))
	tm := tr.ComputeTiming(NominalMode)
	for _, e := range []cell.Edge{cell.Rising, cell.Falling} {
		liDD, liSS := tr.LeafCurrents(tm, e)
		niDD, niSS := tr.NonLeafCurrents(tm, e)
		tiDD, tiSS := tr.TreeCurrents(tm, e)
		sumDD := liDD.Charge() + niDD.Charge()
		sumSS := liSS.Charge() + niSS.Charge()
		if math.Abs(sumDD-tiDD.Charge()) > 1e-6*math.Max(1, tiDD.Charge()) {
			t.Fatalf("edge %v: IDD charge %g+%g != %g", e, liDD.Charge(), niDD.Charge(), tiDD.Charge())
		}
		if math.Abs(sumSS-tiSS.Charge()) > 1e-6*math.Max(1, tiSS.Charge()) {
			t.Fatalf("edge %v: ISS mismatch", e)
		}
	}
}

func TestInverterLeafMovesIDDPulseToFallingEdge(t *testing.T) {
	// The polarity mechanism itself: with a buffer leaf the big IDD pulse
	// appears at the rising source edge; with an inverter leaf it moves to
	// the falling source edge.
	tr, lib := buildBalanced(t)
	leaf := tr.Leaves()[0]
	tm := tr.ComputeTiming(NominalMode)
	iddRiseBuf, _ := tr.NodeCurrents(tm, leaf, cell.Rising)
	pBufRise, _ := iddRiseBuf.Peak()

	tr.SetCell(leaf, lib.MustByName("INV_X4"))
	tm = tr.ComputeTiming(NominalMode)
	iddRiseInv, _ := tr.NodeCurrents(tm, leaf, cell.Rising)
	iddFallInv, _ := tr.NodeCurrents(tm, leaf, cell.Falling)
	pInvRise, _ := iddRiseInv.Peak()
	pInvFall, _ := iddFallInv.Peak()
	if pInvRise >= pBufRise {
		t.Fatalf("inverter leaf should shrink rising-edge IDD: %g vs %g", pInvRise, pBufRise)
	}
	if pInvFall <= pInvRise {
		t.Fatalf("inverter leaf IDD should peak at falling edge: %g vs %g", pInvFall, pInvRise)
	}
}

func TestPeakCurrentPositive(t *testing.T) {
	tr, _ := buildBalanced(t)
	tm := tr.ComputeTiming(NominalMode)
	if p := tr.PeakCurrent(tm); p <= 0 {
		t.Fatalf("peak current %g", p)
	}
}

// Property: leaf polarity equals parity of inverting cells on root path,
// under random cell re-assignments.
func TestPropertyPolarityMatchesParity(t *testing.T) {
	lib := cell.DefaultLibrary()
	cells := []*cell.Cell{
		lib.MustByName("BUF_X4"), lib.MustByName("BUF_X8"),
		lib.MustByName("INV_X4"), lib.MustByName("INV_X8"),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _ := buildBalanced(t)
		for id := 0; id < tr.Len(); id++ {
			tr.SetCell(NodeID(id), cells[rng.Intn(len(cells))])
		}
		for _, leaf := range tr.Leaves() {
			parity := 0
			for _, id := range tr.PathToRoot(leaf) {
				if tr.Node(id).Cell.Inverting() {
					parity++
				}
			}
			if tr.PolarityOf(leaf) != (parity%2 == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: skew is invariant under uniform extra delay on every leaf.
func TestPropertySkewShiftInvariant(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		tr, lib := buildBalanced(t)
		adb := lib.MustByName("ADB_X8")
		steps := rng.Intn(adb.MaxSteps + 1)
		// Replace ALL leaves with the same ADB at the same setting: arrival
		// times all shift equally, skew must not change materially.
		tm0 := tr.ComputeTiming(NominalMode)
		s0 := tm0.Skew(tr)
		for _, leaf := range tr.Leaves() {
			tr.SetCell(leaf, adb)
			tr.SetAdjustSteps(leaf, NominalMode.Name, steps)
		}
		tm1 := tr.ComputeTiming(NominalMode)
		s1 := tm1.Skew(tr)
		return math.Abs(s0-s1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestModeValidate: a supply is accepted in (0, 10] V and nowhere else,
// and the error names the first bad domain in sorted order.
func TestModeValidate(t *testing.T) {
	for _, v := range []float64{0.9, 1.1, 10} {
		m := Mode{Name: "m", Supplies: map[string]float64{"core": v}}
		if err := m.Validate(); err != nil {
			t.Errorf("supply %g: %v", v, err)
		}
	}
	if err := NominalMode.Validate(); err != nil {
		t.Errorf("nominal mode: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 10.5} {
		m := Mode{Name: "m", Supplies: map[string]float64{"core": 1.1, "pd1": v}}
		if err := m.Validate(); err == nil {
			t.Errorf("supply %g accepted", v)
		}
	}
	if err := (Mode{Supplies: map[string]float64{"core": 0.9}}).Validate(); err == nil {
		t.Error("mode without a name accepted")
	}
	m := Mode{Name: "m", Supplies: map[string]float64{"pd0": -1, "pd1": 0, "pd2": 1.1}}
	for i := 0; i < 10; i++ {
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), `"pd0"`) {
			t.Fatalf("got %v, want the error to name pd0", err)
		}
	}
}
