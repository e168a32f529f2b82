package clocktree_test

import (
	"bytes"
	"context"
	"testing"

	"wavemin"
	"wavemin/internal/bench"
	"wavemin/internal/clocktree"
)

// TestWriteJSONMatchesEncodingJSONOnPaperCircuits holds WriteJSON to the
// encoding/json rendering on the seven paper circuits as synthesized, and
// again after a 3-mode ClkWaveMin-M run has placed ADBs and ADIs and set
// their per-mode steps.
func TestWriteJSONMatchesEncodingJSONOnPaperCircuits(t *testing.T) {
	adjusted := map[string]int{}
	for _, name := range wavemin.BenchmarkNames() {
		d, err := wavemin.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		matchesOracle(t, name, d.Tree)
		spec, _ := bench.SpecByName(name)
		islands, err := d.PartitionVoltageIslands(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetModes(spec.Modes(islands, 3)); err != nil {
			t.Fatal(err)
		}
		cfg := wavemin.Config{Kappa: 14, Samples: 16, Epsilon: 0.05, EnableADI: true, MaxIntersections: 4}
		if _, err := d.Optimize(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		matchesOracle(t, name+" after ClkWaveMin-M", d.Tree)
		for _, leaf := range d.Tree.Leaves() {
			if n := d.Tree.Node(leaf); len(n.AdjustSteps) > 1 {
				adjusted[n.Cell.Name]++
			}
		}
	}
	if adjusted["ADB_X8"] == 0 || adjusted["ADI_X8"] == 0 {
		t.Fatalf("ClkWaveMin-M set multi-mode steps on %v, want ADBs and ADIs", adjusted)
	}
}

func matchesOracle(t *testing.T, what string, tree *clocktree.Tree) {
	t.Helper()
	want, err := clocktree.OracleJSON(tree)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tree.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteJSON differs from encoding/json", what)
	}
}
