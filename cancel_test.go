package wavemin

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wavemin/internal/faultinject"
)

// treeJSON snapshots the design's tree so tests can assert that a failed
// Optimize left it byte-for-byte untouched.
func treeJSON(t *testing.T, d *Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveTree(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockAt installs a fault hook at site that signals first entry and then
// parks every caller until release is closed.
func blockAt(t *testing.T, site string) (entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	faultinject.Set(site, func() {
		once.Do(func() { close(entered) })
		<-release
	})
	t.Cleanup(func() { faultinject.Clear(site) })
	return entered, release
}

// multiModeDesign is the s15850 two-mode fixture shared by the multi-mode
// robustness tests.
func multiModeDesign(t *testing.T) *Design {
	t.Helper()
	d, err := Benchmark("s15850")
	if err != nil {
		t.Fatal(err)
	}
	domains, err := d.PartitionVoltageIslands(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetModes([]Mode{
		{Name: "M1", Supplies: map[string]float64{domains[0]: 1.1, domains[1]: 1.1, domains[2]: 1.1, domains[3]: 1.1}},
		{Name: "M2", Supplies: map[string]float64{domains[0]: 0.9, domains[1]: 1.1, domains[2]: 0.9, domains[3]: 1.1}},
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

// assertCancelPrompt drives opt on a fresh goroutine, waits for the solver
// to reach the injection site, cancels, and requires a prompt
// context.Canceled return with the tree unmodified.
func assertCancelPrompt(t *testing.T, d *Design, site string, opt func(context.Context) error) {
	t.Helper()
	before := treeJSON(t, d)
	entered, release := blockAt(t, site)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- opt(ctx) }()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("solver never reached the injection site")
	}
	cancel()
	start := time.Now()
	close(release)
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Optimize did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond+timingSlack/5 {
		t.Errorf("returned %v after cancel, want < ~100ms", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !bytes.Equal(before, treeJSON(t, d)) {
		t.Fatal("canceled optimization modified the tree")
	}
}

// TestOptimizeCancelPrompt covers every single-mode solver on the s13207
// benchmark: cancellation mid-solve must surface context.Canceled promptly
// and leave the design untouched. A plain cancellation (no budget) must
// NOT silently degrade to a cheaper algorithm.
func TestOptimizeCancelPrompt(t *testing.T) {
	cases := []struct {
		algo Algorithm
		site string
	}{
		{WaveMin, faultinject.SiteMospSolve},
		{WaveMinFast, faultinject.SiteMospSolveFast},
		{PeakMin, faultinject.SitePeakminSolve},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.algo.String(), func(t *testing.T) {
			d, err := Benchmark("s13207")
			if err != nil {
				t.Fatal(err)
			}
			assertCancelPrompt(t, d, tc.site, func(ctx context.Context) error {
				_, err := d.Optimize(ctx, Config{Samples: 32, MaxIntervals: 4, Algorithm: tc.algo})
				return err
			})
		})
	}
}

// TestMultiModeOptimizeCancelPrompt is the ClkWaveMin-M variant: even
// though the solver inserts ADBs mid-flight, a cancellation must leave the
// facade's tree unmodified (all mutation happens on a clone).
func TestMultiModeOptimizeCancelPrompt(t *testing.T) {
	d := multiModeDesign(t)
	assertCancelPrompt(t, d, faultinject.SiteMultimodeZone, func(ctx context.Context) error {
		_, err := d.Optimize(ctx, Config{Kappa: 14, Samples: 16, EnableADI: true, MaxIntersections: 4})
		return err
	})
}

// TestMeasureCancelPrompt cancels the power-grid transient underneath
// Measure.
func TestMeasureCancelPrompt(t *testing.T) {
	d, err := Benchmark("s13207")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := blockAt(t, faultinject.SitePowergridSim)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := d.Measure(ctx)
		done <- err
	}()
	<-entered
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Measure err = %v, want context.Canceled", err)
	}
}

// TestOptimizePanicBecomesInternalError injects a panic into the MOSP
// solver and requires the facade to convert it into *InternalError with a
// captured stack, leaving the tree unmodified and the design usable.
func TestOptimizePanicBecomesInternalError(t *testing.T) {
	d, err := New(gridSinks(12))
	if err != nil {
		t.Fatal(err)
	}
	before := treeJSON(t, d)
	faultinject.Set(faultinject.SiteMospSolve, func() { panic("injected fault") })
	t.Cleanup(func() { faultinject.Clear(faultinject.SiteMospSolve) })
	_, err = d.Optimize(context.Background(), Config{Samples: 16, MaxIntervals: 2})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Value != "injected fault" {
		t.Fatalf("panic value = %v", ie.Value)
	}
	if !strings.Contains(string(ie.Stack), "faultinject") {
		t.Fatal("stack trace does not include the panic site")
	}
	if !strings.Contains(ie.Error(), "injected fault") {
		t.Fatalf("Error() = %q", ie.Error())
	}
	if !bytes.Equal(before, treeJSON(t, d)) {
		t.Fatal("panicked Optimize modified the tree")
	}
	// The design must remain fully usable after the failure.
	faultinject.Clear(faultinject.SiteMospSolve)
	if _, err := d.Optimize(context.Background(), Config{Samples: 16, MaxIntervals: 2}); err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
}

// TestMultiModePanicLeavesTreeUnmodified: a panic after ADB insertion has
// already mutated the working clone must not leak any of that mutation
// into the design.
func TestMultiModePanicLeavesTreeUnmodified(t *testing.T) {
	d := multiModeDesign(t)
	before := treeJSON(t, d)
	faultinject.Set(faultinject.SiteMultimodeZone, func() { panic("mid-zone fault") })
	t.Cleanup(func() { faultinject.Clear(faultinject.SiteMultimodeZone) })
	_, err := d.Optimize(context.Background(), Config{Kappa: 14, Samples: 16, EnableADI: true, MaxIntersections: 4})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if !bytes.Equal(before, treeJSON(t, d)) {
		t.Fatal("panicked multi-mode Optimize modified the tree")
	}
}

// TestOptimizeDegradesToFast delays the ClkWaveMin rung past its slice of
// the budget; the ladder must answer with ClkWaveMin-f and say so.
func TestOptimizeDegradesToFast(t *testing.T) {
	for _, via := range []string{"budget", "ctx-deadline"} {
		via := via
		t.Run(via, func(t *testing.T) {
			d, err := New(gridSinks(12))
			if err != nil {
				t.Fatal(err)
			}
			// The first rung's slice is half the 800ms budget; a 450ms
			// stall at the MOSP entry blows it deterministically.
			faultinject.Set(faultinject.SiteMospSolve, func() { time.Sleep(450 * time.Millisecond) })
			t.Cleanup(func() { faultinject.Clear(faultinject.SiteMospSolve) })
			cfg := Config{Samples: 16, MaxIntervals: 2}
			ctx := context.Background()
			const budget = 800 * time.Millisecond
			if via == "budget" {
				cfg.Budget = budget
			} else {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, budget)
				defer cancel()
			}
			start := time.Now()
			res, err := d.Optimize(ctx, cfg)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded {
				t.Fatal("expected a degraded result")
			}
			if res.AlgorithmUsed != "ClkWaveMin-f" {
				t.Fatalf("AlgorithmUsed = %q, want ClkWaveMin-f", res.AlgorithmUsed)
			}
			if elapsed > 2*budget+timingSlack {
				t.Fatalf("took %v, want < ~2× the %v budget", elapsed, budget)
			}
			if res.After.PeakCurrent <= 0 || res.NumBuffers+res.NumInverters == 0 {
				t.Fatalf("degraded result is missing metrics: %+v", res)
			}
			if err := d.Tree.Validate(); err != nil {
				t.Fatalf("tree invalid after degraded optimize: %v", err)
			}
		})
	}
}

// TestOptimizeExhaustedLadder stalls every rung; the bottom of the ladder
// must hand back the unmodified tree with Before metrics instead of an
// error.
func TestOptimizeExhaustedLadder(t *testing.T) {
	d, err := New(gridSinks(12))
	if err != nil {
		t.Fatal(err)
	}
	before := treeJSON(t, d)
	for _, site := range []string{
		faultinject.SiteMospSolve, faultinject.SiteMospSolveFast, faultinject.SitePeakminSolve,
	} {
		faultinject.Set(site, func() { time.Sleep(300 * time.Millisecond) })
	}
	t.Cleanup(faultinject.Reset)
	start := time.Now()
	res, err := d.Optimize(context.Background(), Config{Samples: 16, MaxIntervals: 2, Budget: 250 * time.Millisecond})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.AlgorithmUsed != AlgorithmNone {
		t.Fatalf("Degraded=%v AlgorithmUsed=%q, want exhausted ladder", res.Degraded, res.AlgorithmUsed)
	}
	if res.After != res.Before {
		t.Fatalf("exhausted ladder must report Before metrics unchanged: %+v vs %+v", res.After, res.Before)
	}
	if elapsed > 1500*time.Millisecond+timingSlack {
		t.Fatalf("exhausted ladder took %v", elapsed)
	}
	if !bytes.Equal(before, treeJSON(t, d)) {
		t.Fatal("exhausted ladder modified the tree")
	}
}

// TestOptimizeTightBudgetS35932: on s35932 a 300ms budget must return
// within ~2× the budget with Result.Degraded set and a valid tree — never
// hang, never panic. The ClkWaveMin rung gets at most half the budget,
// and a 250ms stall at every MOSP entry overruns that slice however fast
// the solver is; ClkWaveMin-f and ClkPeakMin have their own fault sites,
// so the lower rungs run at full speed.
func TestOptimizeTightBudgetS35932(t *testing.T) {
	d, err := Benchmark("s35932")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(faultinject.SiteMospSolve, func() { time.Sleep(250 * time.Millisecond) })
	t.Cleanup(func() { faultinject.Clear(faultinject.SiteMospSolve) })
	const budget = 300 * time.Millisecond
	start := time.Now()
	res, err := d.Optimize(context.Background(), Config{Budget: budget})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 2*budget+timingSlack {
		t.Fatalf("took %v, want < ~2× the %v budget", elapsed, budget)
	}
	if !res.Degraded {
		t.Fatalf("expected degradation under a %v budget (AlgorithmUsed=%q)", budget, res.AlgorithmUsed)
	}
	if res.AlgorithmUsed == "ClkWaveMin" {
		t.Fatal("degraded result still claims the full algorithm")
	}
	if err := d.Tree.Validate(); err != nil {
		t.Fatalf("tree invalid after budgeted optimize: %v", err)
	}
}

// TestOptimizeNoDeadlineNeverDegrades: without a budget or deadline the
// ladder has exactly one rung, so results match the plain seed flow.
func TestOptimizeNoDeadlineNeverDegrades(t *testing.T) {
	d, err := New(gridSinks(12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Optimize(context.Background(), Config{Samples: 16, MaxIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("no-deadline run reported Degraded")
	}
	if res.AlgorithmUsed != "ClkWaveMin" {
		t.Fatalf("AlgorithmUsed = %q", res.AlgorithmUsed)
	}
}

// TestDynamicPolarityCancel covers the dynamic-polarity (XOR) path.
func TestDynamicPolarityCancel(t *testing.T) {
	d := multiModeDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.OptimizeDynamicPolarity(ctx, Config{Samples: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
