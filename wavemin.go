// Package wavemin is a clock-tree peak-current and power-noise optimizer:
// a Go implementation of WaveMin (Joo & Kim, DAC 2011; extended in IEEE
// TCAD 33(2), 2014), the fine-grained clock buffer polarity assignment
// combined with buffer sizing.
//
// Given a placed, buffered clock tree, WaveMin re-assigns every leaf
// buffering element to a buffer or inverter from a sizing library so that
// the accumulated supply-current waveform — sampled at many time points,
// with non-leaf contributions and per-sink arrival times modeled — has a
// minimal peak, while the clock skew stays within a bound κ in every power
// mode. Designs whose multi-mode skew cannot be fixed by sizing alone get
// adjustable delay buffers (ADBs) and, optionally, the paper's adjustable
// delay inverters (ADIs).
//
// The package is a facade over the internal engine:
//
//   - internal/polarity, internal/mosp: the WaveMin formulation and its
//     ε-approximate multi-objective shortest path solver;
//   - internal/multimode, internal/adb: the multi-power-mode extension;
//   - internal/peakmin: the ClkPeakMin comparison baseline;
//   - internal/cell, internal/clocktree, internal/cts, internal/spice,
//     internal/powergrid, internal/bench: the EDA substrate (cell models,
//     tree timing, synthesis, transient simulation, rail-noise analysis,
//     benchmark generation).
//
// See examples/ for runnable walkthroughs and cmd/experiments for the
// paper's evaluation tables.
package wavemin

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/cts"
	"wavemin/internal/multimode"
	"wavemin/internal/obs"
	"wavemin/internal/polarity"
	"wavemin/internal/powergrid"
	"wavemin/internal/xorpol"
	"wavemin/internal/zonecache"
)

// Sink is a clock consumer: a flip-flop group at a die location with a
// lumped load (fF), driven by one leaf buffering element.
type Sink = cts.Sink

// Mode is a power mode: a named assignment of supply voltages to voltage
// domains.
type Mode = clocktree.Mode

// NominalMode runs every domain at the nominal 1.1 V supply.
var NominalMode = clocktree.NominalMode

// Algorithm selects the optimizer.
type Algorithm int

const (
	// WaveMin is the ε-approximate fine-grained optimizer (ClkWaveMin).
	WaveMin Algorithm = iota
	// WaveMinFast is the fast greedy variant (ClkWaveMin-f).
	WaveMinFast
	// PeakMin is the two-corner baseline of Jang et al. (ClkPeakMin),
	// provided for comparison studies.
	PeakMin
)

// String returns the paper's name for the algorithm. It matches the
// single-mode values of Result.AlgorithmUsed.
func (a Algorithm) String() string {
	switch a {
	case WaveMin:
		return "ClkWaveMin"
	case WaveMinFast:
		return "ClkWaveMin-f"
	case PeakMin:
		return "ClkPeakMin"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config parameterizes Optimize. The zero value is completed with the
// paper's defaults.
type Config struct {
	Kappa     float64   // clock skew bound, ps (default 20)
	Samples   int       // |S| time sampling points (default 158)
	Epsilon   float64   // approximation parameter (default 0.01)
	ZoneSize  float64   // noise-zone tile, µm (default 50)
	Algorithm Algorithm // default WaveMin
	// EnableADI offers adjustable delay inverters at ADB sites in
	// multi-mode designs (the paper's Observation 3).
	EnableADI bool
	// MaxIntervals / MaxIntersections bound the search breadth (0 = the
	// experiment defaults).
	MaxIntervals     int
	MaxIntersections int
	// Workers bounds the solver parallelism: the (interval, zone) fan-out
	// in single-mode runs, the per-zone fan-out in multi-mode runs, and
	// the (mode, zone) fan-out in OptimizeDynamicPolarity. 0 uses
	// GOMAXPROCS; 1 forces the serial path. Results are bitwise identical
	// for every worker count.
	Workers int
	// Budget bounds the wall-clock time Optimize may spend (0 = unlimited).
	// When the configured algorithm cannot finish within the budget it is
	// cancelled and the pipeline degrades down the algorithm ladder —
	// ClkWaveMin → ClkWaveMin-f → ClkPeakMin → unmodified tree — so a
	// bounded-time, possibly lower-quality answer is always returned.
	// A deadline on the Context passed to Optimize enables the same
	// degradation; the tighter of the two wins.
	Budget time.Duration
	// ECO, when non-nil, runs this optimization incrementally: every
	// (interval, zone) solver instance is content-keyed, unchanged zones
	// replay their cached solution, and only the delta is solved. ECO
	// never changes the answer — replay is bitwise-identical to solving by
	// construction — so, like Workers and Budget, it is an execution hint:
	// it is excluded from CacheKey and the eco accounting fields it
	// populates are excluded from the marshaled Result. Single-mode flow
	// only; multi-mode rungs ignore it.
	ECO *ECOConfig `json:"ECO,omitempty"`
}

// ECOConfig carries the incremental re-optimization inputs of one run.
// A non-nil-but-empty ECOConfig is meaningful: it records the run's zone
// solutions (Result.Zones) without seeding any, which is how a cold run
// becomes a base for later deltas.
type ECOConfig struct {
	// BaseZones seeds the run's zone-solution session with a base run's
	// recorded solutions: zone content key → encoded zonecache.Solution.
	// Seeds are an optimization, never a correctness input — malformed or
	// stale entries are dropped and those zones are simply re-solved.
	BaseZones map[string][]byte `json:"baseZones,omitempty"`
}

// Validate rejects nonsensical configurations with a descriptive error.
// Zero values are permitted — they select the paper defaults — but
// negative or degenerate values are not.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.Kappa) || c.Kappa < 0:
		return fmt.Errorf("wavemin: invalid skew bound κ=%g (want > 0, or 0 for the default)", c.Kappa)
	case c.Samples != 0 && c.Samples < 2:
		return fmt.Errorf("wavemin: invalid sample count %d (want >= 2, or 0 for the default)", c.Samples)
	case math.IsNaN(c.Epsilon) || c.Epsilon < 0:
		return fmt.Errorf("wavemin: invalid approximation parameter ε=%g (want > 0, or 0 for the default)", c.Epsilon)
	case math.IsNaN(c.ZoneSize) || c.ZoneSize < 0:
		return fmt.Errorf("wavemin: invalid zone size %g µm (want > 0, or 0 for the default)", c.ZoneSize)
	case c.Algorithm < WaveMin || c.Algorithm > PeakMin:
		return fmt.Errorf("wavemin: unknown algorithm %d", int(c.Algorithm))
	case c.MaxIntervals < 0:
		return fmt.Errorf("wavemin: negative interval cap %d", c.MaxIntervals)
	case c.MaxIntersections < 0:
		return fmt.Errorf("wavemin: negative intersection cap %d", c.MaxIntersections)
	case c.Workers < 0:
		return fmt.Errorf("wavemin: negative worker count %d (want > 0, or 0 for GOMAXPROCS)", c.Workers)
	case c.Budget < 0:
		return fmt.Errorf("wavemin: negative budget %v", c.Budget)
	}
	return nil
}

// WithDefaults returns the config with every zero-valued knob replaced by
// the paper default — the effective values Optimize runs with. Callers
// that derive configuration variants (internal/yield's candidate knobs)
// need the effective values: scaling a zero ZoneSize would silently be a
// no-op.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Kappa == 0 {
		c.Kappa = 20
	}
	if c.Samples == 0 {
		c.Samples = 158
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.01
	}
	if c.ZoneSize == 0 {
		c.ZoneSize = polarity.DefaultZoneSize
	}
	if c.MaxIntervals == 0 {
		c.MaxIntervals = 8
	}
	if c.MaxIntersections == 0 {
		c.MaxIntersections = 8
	}
	return c
}

// Design is a buffered clock tree with its power grid and operating modes.
//
// A Design is safe for concurrent use: Optimize, Measure,
// OptimizeDynamicPolarity, SetModes, PartitionVoltageIslands, and SaveTree
// may be called from multiple goroutines. Each Optimize works on a private
// snapshot of the tree taken at entry and commits its result atomically at
// the end, so concurrent Optimize calls run fully in parallel; when several
// commit, the last one to finish wins (each result is internally
// consistent — commits never interleave). Direct field access (Tree, Grid,
// Modes) is not synchronized; use the methods when sharing a Design across
// goroutines.
type Design struct {
	Tree  *clocktree.Tree
	Grid  *powergrid.Grid
	Modes []Mode

	// mu guards the Tree pointer's node storage (snapshot/commit), Modes,
	// and the lazy lib init. The Grid is immutable after construction.
	mu         sync.Mutex
	lib        *cell.Library
	dieW, dieH float64
}

// zoneSession builds the per-run ECO session seeded with the base run's
// solutions, or nil when the run is not an ECO run.
func zoneSession(cfg Config) *zonecache.Session {
	if cfg.ECO == nil {
		return nil
	}
	zs := zonecache.NewSession()
	zs.Seed(cfg.ECO.BaseZones)
	return zs
}

// snapshot returns a consistent private view of the design — a deep clone
// of the tree, a copy of the mode list, and the (lazily initialized) cell
// library — for one optimization or measurement run.
func (d *Design) snapshot() (*clocktree.Tree, []Mode, *cell.Library) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lib == nil {
		d.lib = cell.DefaultLibrary()
	}
	return d.Tree.Clone(), append([]Mode(nil), d.Modes...), d.lib
}

// commit atomically publishes an optimized tree as the design's tree.
func (d *Design) commit(work *clocktree.Tree) {
	d.mu.Lock()
	d.Tree.ReplaceWith(work)
	d.mu.Unlock()
}

// New synthesizes a near-zero-skew buffered clock tree over the sinks and
// builds a matching power grid. The die is inferred from the sink bounding
// box.
func New(sinks []Sink) (*Design, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("wavemin: no sinks")
	}
	lib := cell.DefaultLibrary()
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := cts.Synthesize(sinks, lib, opt)
	if err != nil {
		return nil, err
	}
	var w, h float64
	for _, s := range sinks {
		if s.X > w {
			w = s.X
		}
		if s.Y > h {
			h = s.Y
		}
	}
	grid, err := powergrid.New(w+10, h+10, powergrid.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &Design{Tree: tree, Grid: grid, Modes: []Mode{NominalMode}, lib: lib, dieW: w + 10, dieH: h + 10}, nil
}

// Benchmark loads one of the built-in synthetic benchmark circuits
// (s13207, s15850, s35932, s38417, s38584, ispd09f31, ispd09f34).
func Benchmark(name string) (*Design, error) {
	spec, ok := bench.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("wavemin: unknown benchmark %q", name)
	}
	lib := cell.DefaultLibrary()
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := spec.Synthesize(lib, opt)
	if err != nil {
		return nil, err
	}
	gopt := powergrid.DefaultOptions()
	if spec.Clustered {
		gopt = powergrid.DenseOptions()
	}
	grid, err := powergrid.New(spec.DieW, spec.DieH, gopt)
	if err != nil {
		return nil, err
	}
	return &Design{Tree: tree, Grid: grid, Modes: []Mode{NominalMode}, lib: lib,
		dieW: spec.DieW, dieH: spec.DieH}, nil
}

// BenchmarkNames lists the built-in circuits.
func BenchmarkNames() []string {
	var out []string
	for _, s := range bench.Specs() {
		out = append(out, s.Name)
	}
	return out
}

// PartitionVoltageIslands splits the die into n region-based voltage
// domains, assigns every tree node to its region, and returns the domain
// names (for building Modes).
func (d *Design) PartitionVoltageIslands(n int) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return bench.AssignDomains(d.Tree, d.dieW, d.dieH, n)
}

// SetModes declares the design's power modes. At least one is required,
// and every supply must pass Mode.Validate; the skew bound will be
// enforced in every mode.
func (d *Design) SetModes(modes []Mode) error {
	if len(modes) == 0 {
		return fmt.Errorf("wavemin: empty mode list")
	}
	for _, m := range modes {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("wavemin: %w", err)
		}
	}
	d.mu.Lock()
	d.Modes = append([]Mode(nil), modes...)
	d.mu.Unlock()
	return nil
}

// Metrics is a golden ("simulator-measured") evaluation of the design.
type Metrics struct {
	PeakCurrent float64 // µA, worst over modes and edges
	VDDNoise    float64 // volts
	GndNoise    float64 // volts
	WorstSkew   float64 // ps, worst over modes
}

// Measure evaluates the design as-is: total-waveform peak current, rail
// noise from the power-grid transient, and worst-mode skew. The context
// cancels the underlying transient simulation promptly; internal panics
// surface as *InternalError.
func (d *Design) Measure(ctx context.Context) (m Metrics, err error) {
	defer recoverToError(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	tree, modes, _ := d.snapshot()
	return d.measureTree(ctx, tree, modes)
}

// measureTree evaluates an arbitrary tree against the design's grid in the
// given modes — the same metrics as Measure, usable on working clones
// before they are committed.
func (d *Design) measureTree(ctx context.Context, t *clocktree.Tree, modes []Mode) (Metrics, error) {
	var m Metrics
	for _, mode := range modes {
		if err := ctx.Err(); err != nil {
			return Metrics{}, err
		}
		tm := t.ComputeTiming(mode)
		if p := t.PeakCurrent(tm); p > m.PeakCurrent {
			m.PeakCurrent = p
		}
		if s := tm.Skew(t); s > m.WorstSkew {
			m.WorstSkew = s
		}
		v, g, err := d.Grid.MeasureTreeNoise(ctx, t, tm)
		if err != nil {
			return Metrics{}, err
		}
		if v > m.VDDNoise {
			m.VDDNoise = v
		}
		if g > m.GndNoise {
			m.GndNoise = g
		}
	}
	return m, nil
}

// AlgorithmNone is the AlgorithmUsed value of the degradation ladder's
// bottom rung: no optimizer finished within the budget and the tree was
// returned unmodified.
const AlgorithmNone = "none"

// StageStats is one stage of a run's telemetry summary: a facade-level
// phase (measurement, one ladder rung) with its wall time and the counter
// totals over its whole subtree of spans.
type StageStats struct {
	Path     string
	Duration time.Duration
	Counters map[string]int64
}

// Stats summarizes the telemetry of one Optimize run. It is populated
// only when the context passed to Optimize carries a telemetry trace (see
// internal/obs and cmd/wavemin's -metrics flag); otherwise it is nil and
// the run pays no telemetry cost.
type Stats struct {
	Stages   []StageStats
	Counters map[string]int64 // grand totals over the whole run
}

// Result reports an optimization.
type Result struct {
	Before, After Metrics
	NumBuffers    int // leaves assigned plain buffers
	NumInverters  int // leaves assigned plain inverters
	NumADBs       int
	NumADIs       int
	ADBInserted   int // ADBs added to fix multi-mode skew
	Runtime       time.Duration
	// AlgorithmUsed names the rung of the degradation ladder that produced
	// the final tree ("ClkWaveMin", "ClkWaveMin-f", "ClkPeakMin",
	// "ClkWaveMin-M", "ClkWaveMin-Mf", or AlgorithmNone).
	AlgorithmUsed string
	// Degraded reports that the configured algorithm did not finish within
	// the budget/deadline and a cheaper rung (possibly "return the tree
	// unmodified") answered instead.
	Degraded bool
	// Stats carries the run's telemetry summary when the context carries a
	// trace (internal/obs); nil otherwise.
	Stats *Stats

	// ECO accounting, populated only when Config.ECO is set. All three are
	// excluded from the marshaled result: like Stats, they describe the
	// run, not the answer, and the canonical result bytes of a delta solve
	// must equal those of the cold solve it shortcuts.
	//
	// ZonesReused counts (interval, zone) solver instances replayed from
	// cached solutions; ZonesResolved counts instances actually solved.
	ZonesReused   int `json:"-"`
	ZonesResolved int `json:"-"`
	// Zones is every zone solution this run replayed or produced, keyed by
	// zone content key — the map a job registry records so later deltas
	// can chain off this result, and a dispatched run ships home.
	Zones map[string][]byte `json:"-"`
}

// PeakReduction returns the percent peak-current improvement.
func (r *Result) PeakReduction() float64 {
	if r.Before.PeakCurrent == 0 {
		return 0
	}
	return 100 * (r.Before.PeakCurrent - r.After.PeakCurrent) / r.Before.PeakCurrent
}

// rung is one step of the degradation ladder: it optimizes a clone of the
// design's tree and returns the result plus the clone to commit.
type rung struct {
	name string
	run  func(ctx context.Context) (*Result, *clocktree.Tree, error)
}

// Optimize runs the WaveMin flow on the design, modifying its tree in
// place: single-mode designs use ClkWaveMin (or the selected variant);
// multi-mode designs use ClkWaveMin-M with ADB insertion as needed.
//
// The context cancels the optimization promptly at every hot loop. When
// cfg.Budget is set (or ctx carries a deadline), Optimize never blows the
// budget: if the configured algorithm cannot finish in time it is
// cancelled and the pipeline degrades down the ladder — ClkWaveMin →
// ClkWaveMin-f → ClkPeakMin → "return the tree unmodified" — recording
// the answering rung in Result.AlgorithmUsed and setting Result.Degraded.
// All work happens on a clone that is committed atomically on success, so
// a cancelled, failed, or panicking run leaves the design untouched;
// internal panics surface as *InternalError.
func (d *Design) Optimize(ctx context.Context, cfg Config) (res *Result, err error) {
	defer recoverToError(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	// Private snapshot: all optimization and measurement below works on
	// this consistent view, so concurrent Optimize calls never observe each
	// other's intermediate state.
	snap, modes, lib := d.snapshot()
	// Telemetry root span. The worker count is deliberately NOT recorded
	// as content: traces must be bitwise identical across Workers values
	// (scheduling-dependent data lives in the events' timing blocks).
	var sp *obs.Span
	ctx, sp = obs.Start(ctx, "optimize")
	if sp != nil {
		sp.SetAttr("algorithm", cfg.Algorithm.String())
		sp.SetAttr("kappa", fmt.Sprintf("%g", cfg.Kappa))
		sp.SetAttr("samples", fmt.Sprintf("%d", cfg.Samples))
		sp.SetAttr("epsilon", fmt.Sprintf("%g", cfg.Epsilon))
		sp.SetAttr("modes", fmt.Sprintf("%d", len(modes)))
		tr := obs.TraceFrom(ctx)
		defer func() { // registered before sp.End's defer, so it runs after it
			if res != nil {
				res.Stats = summarizeStats(tr)
			}
		}()
	}
	defer sp.End()
	_, degradable := ctx.Deadline()
	if cfg.Budget > 0 {
		degradable = true
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Budget)
		defer cancel()
	}

	sizing, err := lib.Restrict("BUF_X8", "BUF_X16", "INV_X8", "INV_X16")
	if err != nil {
		return nil, err
	}
	zs := zoneSession(cfg)
	rungs, err := d.ladder(cfg, sizing, degradable, snap, modes, lib, zs)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	msp := sp.Child("measure.before")
	before, err := d.measureTree(obs.WithSpan(ctx, msp), snap, modes)
	if err == nil {
		msp.Gauge("peak", before.PeakCurrent)
		msp.Gauge("skew", before.WorstSkew)
		snapshotWaveform(msp, "waveform.before", snap, modes)
	}
	msp.End()
	if err != nil {
		if degradable && errors.Is(err, context.DeadlineExceeded) {
			// Not even the baseline measurement fits the budget: the
			// bottom rung answers with the unmodified tree (and, lacking
			// a finished measurement, zero metrics).
			res := &Result{AlgorithmUsed: AlgorithmNone, Degraded: true, Runtime: time.Since(start)}
			countCells(snap, res)
			return res, nil
		}
		return nil, err
	}

	for i, r := range rungs {
		// Budget split: every rung but the last gets half of the time
		// remaining under the overall deadline, so a stuck upper rung
		// always leaves room for the cheaper ones below it.
		rungCtx, cancel := ctx, context.CancelFunc(func() {})
		if degradable && i < len(rungs)-1 {
			if overall, ok := ctx.Deadline(); ok {
				rungCtx, cancel = context.WithDeadline(ctx, time.Now().Add(time.Until(overall)/2))
			}
		}
		rsp := sp.Child("rung." + r.name)
		rr, work, rerr := r.run(obs.WithSpan(rungCtx, rsp))
		cancel()
		if rerr == nil {
			if rsp != nil {
				rsp.Gauge("peak", rr.After.PeakCurrent)
				rsp.Gauge("skew", rr.After.WorstSkew)
				snapshotWaveform(rsp, "waveform.after", work, modes)
			}
			rsp.End()
			d.commit(work)
			rr.Before = before
			rr.Runtime = time.Since(start)
			rr.AlgorithmUsed = r.name
			rr.Degraded = i > 0
			if zs != nil {
				rr.Zones = zs.Used()
				if esp := sp.Child("eco"); esp != nil {
					esp.Count("eco.zones_reused", int64(rr.ZonesReused))
					esp.Count("eco.zones_resolved", int64(rr.ZonesResolved))
					esp.End()
				}
			}
			return rr, nil
		}
		rsp.SetAttr("outcome", "error")
		rsp.End()
		if !degradable || !errors.Is(rerr, context.DeadlineExceeded) || ctx.Err() == context.Canceled {
			return nil, rerr
		}
		// This rung blew its slice of the budget; fall through to the
		// next, cheaper one.
	}
	// Bottom rung: every optimizer timed out. Return the unmodified tree
	// with the Before metrics — a valid, bounded-time answer.
	res = &Result{
		Before: before, After: before,
		AlgorithmUsed: AlgorithmNone, Degraded: true,
		Runtime: time.Since(start),
	}
	countCells(snap, res)
	return res, nil
}

// ladder builds the degradation ladder for the snapshot and configuration:
// the configured algorithm first, then — when a budget or deadline makes
// degradation meaningful — every cheaper variant below it. Every rung
// optimizes a private clone of snap, so the design itself is untouched
// until Optimize commits.
func (d *Design) ladder(cfg Config, sizing *cell.Library, degradable bool, snap *clocktree.Tree, modes []Mode, lib *cell.Library, zs *zonecache.Session) ([]rung, error) {
	var rungs []rung
	if len(modes) == 1 {
		single := func(algo polarity.Algorithm) rung {
			return rung{name: algo.String(), run: func(ctx context.Context) (*Result, *clocktree.Tree, error) {
				work := snap.Clone()
				opt, err := polarity.Optimize(ctx, work, polarity.Config{
					Library: sizing, Kappa: cfg.Kappa, Samples: cfg.Samples,
					Epsilon: cfg.Epsilon, ZoneSize: cfg.ZoneSize, Algorithm: algo,
					Mode: modes[0], MaxIntervals: cfg.MaxIntervals,
					Workers: cfg.Workers, Zones: zs,
				})
				if err != nil {
					return nil, nil, err
				}
				polarity.Apply(work, opt.Assignment)
				res := &Result{ZonesReused: opt.ZonesReused, ZonesResolved: opt.ZonesResolved}
				countCells(work, res)
				after, err := d.measureTree(ctx, work, modes)
				if err != nil {
					return nil, nil, err
				}
				res.After = after
				return res, work, nil
			}}
		}
		switch cfg.Algorithm {
		case WaveMin:
			rungs = append(rungs, single(polarity.ClkWaveMin), single(polarity.ClkWaveMinF), single(polarity.ClkPeakMinBaseline))
		case WaveMinFast:
			rungs = append(rungs, single(polarity.ClkWaveMinF), single(polarity.ClkPeakMinBaseline))
		case PeakMin:
			rungs = append(rungs, single(polarity.ClkPeakMinBaseline))
		}
	} else {
		adbCell, ok := lib.ByName("ADB_X8")
		if !ok {
			return nil, fmt.Errorf("wavemin: cell library has no %q: multi-mode optimization needs an adjustable delay buffer", "ADB_X8")
		}
		var adiCell *cell.Cell
		if cfg.EnableADI {
			if adiCell, ok = lib.ByName("ADI_X8"); !ok {
				return nil, fmt.Errorf("wavemin: cell library has no %q: EnableADI needs an adjustable delay inverter", "ADI_X8")
			}
		}
		multi := func(name string, fast bool) rung {
			return rung{name: name, run: func(ctx context.Context) (*Result, *clocktree.Tree, error) {
				work := snap.Clone()
				opt, err := multimode.Optimize(ctx, work, modes, multimode.Config{
					Library: sizing, ADBCell: adbCell, ADICell: adiCell,
					Kappa: cfg.Kappa, Samples: cfg.Samples, Epsilon: cfg.Epsilon,
					ZoneSize: cfg.ZoneSize, Fast: fast,
					MaxIntersections: cfg.MaxIntersections,
					Workers:          cfg.Workers,
				})
				if err != nil {
					return nil, nil, err
				}
				if err := multimode.ApplyResult(ctx, work, modes, cfg.Kappa, opt); err != nil {
					return nil, nil, err
				}
				res := &Result{ADBInserted: opt.ADBInserted}
				countCells(work, res)
				after, err := d.measureTree(ctx, work, modes)
				if err != nil {
					return nil, nil, err
				}
				res.After = after
				return res, work, nil
			}}
		}
		if cfg.Algorithm == WaveMinFast {
			rungs = append(rungs, multi("ClkWaveMin-Mf", true))
		} else {
			rungs = append(rungs, multi("ClkWaveMin-M", false), multi("ClkWaveMin-Mf", true))
		}
	}
	if !degradable {
		// Without a budget or deadline there is nothing to degrade to:
		// run exactly the configured algorithm, as the paper flow does.
		rungs = rungs[:1]
	}
	return rungs, nil
}

// DynamicPolarityResult reports OptimizeDynamicPolarity.
type DynamicPolarityResult struct {
	// Positive[leaf][modeName]: the XOR control program (true = the leaf
	// follows the clock polarity in that mode).
	Positive map[clocktree.NodeID]map[string]bool
	// PeakPerMode is the optimizer's per-mode estimate, µA.
	PeakPerMode map[string]float64
	// FlipsPerMode counts leaves running flipped relative to the built
	// tree, per mode.
	FlipsPerMode map[string]int
}

// OptimizeDynamicPolarity computes a per-power-mode polarity program in
// the style of XOR-gate/double-edge-triggered-FF clocking (the research
// direction the paper cites as [30, 31]): instead of committing one
// static buffer/inverter choice, each leaf's polarity becomes a
// mode-programmable bit with no timing impact. The design itself is not
// modified.
//
// The context cancels the per-mode optimization promptly; cfg.Budget, when
// set, bounds the total runtime. Internal panics surface as
// *InternalError.
func (d *Design) OptimizeDynamicPolarity(ctx context.Context, cfg Config) (res *DynamicPolarityResult, err error) {
	defer recoverToError(&err)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Budget)
		defer cancel()
	}
	tree, modes, _ := d.snapshot()
	opt, err := xorpol.Optimize(ctx, tree, modes, xorpol.Config{
		Samples: cfg.Samples, ZoneSize: cfg.ZoneSize, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &DynamicPolarityResult{
		Positive:     opt.Positive,
		PeakPerMode:  opt.PeakPerMode,
		FlipsPerMode: opt.Flips(tree, modes),
	}, nil
}

// snapshotWaveform records the accumulated rising-edge IDD waveform of
// the tree (the paper's Fig. 2 "all clock nodes" curve, in the first
// mode) onto the span. The waveform computation is skipped entirely
// unless the trace enables snapshots.
func snapshotWaveform(sp *obs.Span, name string, t *clocktree.Tree, modes []Mode) {
	if !sp.SnapshotsEnabled() || len(modes) == 0 {
		return
	}
	tm := t.ComputeTiming(modes[0])
	idd, _ := t.TreeCurrents(tm, cell.Rising)
	pts := idd.Points()
	times := make([]float64, len(pts))
	values := make([]float64, len(pts))
	for i, p := range pts {
		times[i], values[i] = p.T, p.I
	}
	sp.Snapshot(name, times, values)
}

// summarizeStats folds the trace into the public Stats form.
func summarizeStats(tr *obs.Trace) *Stats {
	if tr == nil {
		return nil
	}
	s := obs.Summarize(tr.Events())
	out := &Stats{Counters: s.Totals}
	for _, st := range s.Stages {
		out.Stages = append(out.Stages, StageStats{
			Path:     st.Path,
			Duration: st.Duration,
			Counters: st.Counters,
		})
	}
	return out
}

func countCells(t *clocktree.Tree, res *Result) {
	res.NumBuffers, res.NumInverters, res.NumADBs, res.NumADIs = 0, 0, 0, 0
	for _, leaf := range t.Leaves() {
		switch t.Node(leaf).Cell.Kind {
		case cell.Buf:
			res.NumBuffers++
		case cell.Inv:
			res.NumInverters++
		case cell.ADB:
			res.NumADBs++
		case cell.ADI:
			res.NumADIs++
		}
	}
}
