package polarity

import (
	"context"
	"fmt"
	"sync"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/faultinject"
	"wavemin/internal/mosp"
	"wavemin/internal/obs"
	"wavemin/internal/parallel"
	"wavemin/internal/peakmin"
	"wavemin/internal/waveform"
	"wavemin/internal/zonecache"
)

// Algorithm selects the per-zone solver.
type Algorithm int

const (
	// ClkWaveMin is the ε-approximate multi-objective shortest path solver
	// (paper §V-B).
	ClkWaveMin Algorithm = iota
	// ClkWaveMinF is the fast vertex-selection heuristic (paper §V-C).
	ClkWaveMinF
	// ClkPeakMinBaseline is the two-corner knapsack baseline of [27],
	// unaware of arrival times and non-leaf currents.
	ClkPeakMinBaseline
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case ClkWaveMin:
		return "ClkWaveMin"
	case ClkWaveMinF:
		return "ClkWaveMin-f"
	case ClkPeakMinBaseline:
		return "ClkPeakMin"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config parameterizes Optimize.
type Config struct {
	Library   *cell.Library // B ∪ I (∪ adjustables)
	Kappa     float64       // clock skew bound κ, ps
	Samples   int           // |S|: total time sampling points (≥4)
	Epsilon   float64       // Warburton approximation parameter
	ZoneSize  float64       // tile pitch, µm; 0 = DefaultZoneSize
	Algorithm Algorithm
	Mode      clocktree.Mode // operating point; zero value = nominal
	// MaxIntervals bounds how many feasible intervals are fully optimized,
	// taken in decreasing degree-of-freedom order (Fig. 14: more freedom →
	// less noise). 0 = all.
	MaxIntervals int
	// IgnoreNonLeaf drops the non-leaf baseline from the optimization —
	// the Observation 1 ablation: the optimizer then sees only leaf noise,
	// like the prior work the paper improves on.
	IgnoreNonLeaf bool
	// Workers bounds the solver goroutines fanned out over the interval ×
	// zone grid (every (interval, zone) MOSP instance is independent —
	// Fig. 8 is embarrassingly parallel). 0 = GOMAXPROCS, 1 = serial.
	// Results are bitwise identical for every worker count.
	Workers int
	// Zones, when non-nil, is the ECO-mode zone solution session: each
	// (interval, zone) instance is content-keyed (ZoneKeyer) and replayed
	// from the session's seeds when unchanged, solved and recorded when
	// not. Replay is bitwise-identical to solving by construction — the
	// key covers every solver input and the solver is deterministic — so
	// attaching a session never changes the result, only the cost.
	// Ignored by the ClkPeakMinBaseline algorithm (its zone solve is
	// already cheap).
	Zones *zonecache.Session
}

// MaxLabels caps the per-layer Pareto label set of every ClkWaveMin and
// ClkWaveMin-M zone solve, so big clustered zones degrade gracefully
// instead of blowing up.
const MaxLabels = 4000

// ZoneOutcome reports one zone's optimized peak estimate.
type ZoneOutcome struct {
	Zone Zone
	Peak float64 // optimizer estimate over S, µA
}

// Result is the outcome of Optimize.
type Result struct {
	Algorithm      Algorithm
	Assignment     Assignment
	Interval       Interval // chosen window
	PeakEstimate   float64  // max over zones of the optimizer estimate, µA
	ZonePeaks      []ZoneOutcome
	IntervalsTried int
	SkewEstimate   float64 // candidate-model skew of the assignment, ps
	// ECO-mode accounting (zero unless Config.Zones was attached):
	// instances replayed from seeded solutions and instances actually
	// solved.
	ZonesReused   int
	ZonesResolved int
}

// Optimize runs the full single-mode flow of Fig. 8 and returns the best
// assignment found. The input tree is not modified; call Apply to commit.
// Cancellation is checked per interval and per zone, and forwarded into
// the per-zone solvers.
func Optimize(ctx context.Context, t *clocktree.Tree, cfg Config) (*Result, error) {
	if cfg.Library == nil {
		return nil, fmt.Errorf("polarity: nil library")
	}
	if cfg.Kappa <= 0 {
		return nil, fmt.Errorf("polarity: non-positive skew bound %g", cfg.Kappa)
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 4
	}
	mode := cfg.Mode
	if mode.Name == "" {
		mode = clocktree.NominalMode
	}
	ctx, sp := obs.Start(ctx, "polarity")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("algorithm", cfg.Algorithm.String())
		sp.SetAttr("mode", mode.Name)
	}
	cs := BuildCandidates(t, cfg.Library, mode)
	// Richer intervals first (degree-of-freedom pruning).
	intervals, found, err := topIntervals(cs, cfg.Kappa, cfg.MaxIntervals)
	if err != nil {
		return nil, err
	}
	sp.Count("polarity.intervals_found", int64(found))

	tm := t.ComputeTiming(mode)
	zones := LeafZones(PartitionZones(t, cfg.ZoneSize))
	leafIndex := make(map[clocktree.NodeID]int)
	for i, leaf := range cs.Leaves() {
		leafIndex[leaf] = i
	}

	// ECO mode: precompute content digests once so each (interval, zone)
	// instance can be keyed cheaply inside the fan-out. The baseline
	// solver algorithm is excluded — its per-zone solve costs less than a
	// cache round-trip.
	var zk *ZoneKeyer
	if cfg.Zones != nil && cfg.Algorithm != ClkPeakMinBaseline {
		zk = NewZoneKeyer(t, tm, cs, zones, cfg)
	}

	// Every (interval, zone) pair is an independent solver instance; fan
	// them out as one flat index space and merge afterwards in fixed
	// order, so the outcome is identical for every worker count.
	nz := len(zones)
	sp.Count("polarity.zones", int64(nz))
	sp.Count("polarity.intervals_tried", int64(len(intervals)))
	solved := make([]zoneSolved, len(intervals)*nz)
	bases := make([]zoneBaseline, nz)
	ferr := parallel.ForEach(ctx, cfg.Workers, len(solved), func(k int) error {
		ii, zi := k/nz, k%nz
		// Per-instance sub-span at the flat fan-out index: the slot — not
		// the goroutine — fixes its serialized position, so the trace is
		// identical at any worker count.
		zctx := ctx
		if zsp := sp.ChildAt(k, "zone"); zsp != nil {
			defer zsp.End()
			zsp.SetAttr("interval", fmt.Sprintf("[%g,%g]", intervals[ii].Lo, intervals[ii].Hi))
			zsp.Count("zone.leaves", int64(len(zones[zi].Leaves)))
			zctx = obs.WithSpan(ctx, zsp)
		}
		s, err := solveZone(zctx, t, tm, cs, zones[zi], &bases[zi], &intervals[ii], leafIndex, cfg, zk)
		if err != nil {
			iv := &intervals[ii]
			return fmt.Errorf("polarity: interval [%g,%g]: %w", iv.Lo, iv.Hi, err)
		}
		solved[k] = s
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	var best *Result
	for ii := range intervals {
		res := &Result{Algorithm: cfg.Algorithm, Assignment: make(Assignment), Interval: intervals[ii]}
		for zi, zone := range zones {
			s := solved[ii*nz+zi]
			for li, leaf := range zone.Leaves {
				res.Assignment[leaf] = cs.ByLeaf[leaf][s.picks[li]].Cell
			}
			res.ZonePeaks = append(res.ZonePeaks, ZoneOutcome{Zone: zone, Peak: s.peak})
			if s.peak > res.PeakEstimate {
				res.PeakEstimate = s.peak
			}
		}
		if best == nil || res.PeakEstimate < best.PeakEstimate {
			best = res
		}
	}
	best.IntervalsTried = len(intervals)
	if skew, err := cs.SkewOf(best.Assignment); err == nil {
		best.SkewEstimate = skew
	}
	if zk != nil {
		// Aggregated after the fan-out from the ordered slots, so the
		// counts (and the trace counters below) are identical at every
		// worker count.
		for i := range solved {
			if solved[i].reused {
				best.ZonesReused++
			} else {
				best.ZonesResolved++
			}
		}
		sp.Count("eco.zones_reused", int64(best.ZonesReused))
		sp.Count("eco.zones_resolved", int64(best.ZonesResolved))
	}
	return best, nil
}

// zoneSolved is one (interval, zone) outcome: candidate-index picks per
// leaf plus the solver's peak estimate, and whether the instance was
// replayed from the ECO session instead of solved.
type zoneSolved struct {
	picks  []int
	peak   float64
	reused bool
}

// zoneBaseline is one zone's Baseline, built by the first of the zone's
// instances that solves rather than replays, and shared by the rest.
type zoneBaseline struct {
	once sync.Once
	base [NumGroups]waveform.Waveform
}

func (zb *zoneBaseline) get(t *clocktree.Tree, tm *clocktree.Timing, nonLeaves []clocktree.NodeID) []waveform.Waveform {
	zb.once.Do(func() { zb.base = Baseline(t, tm, nonLeaves) })
	return zb.base[:]
}

// solveZone solves a single (interval, zone) instance. It runs on worker
// goroutines: everything it touches is either read-only shared state (the
// tree, timing, candidate set, the zone's baseline once built) or
// per-call (the zone is a value copy, so the IgnoreNonLeaf mutation stays
// local).
func solveZone(
	ctx context.Context, t *clocktree.Tree, tm *clocktree.Timing, cs *CandidateSet,
	zone Zone, zb *zoneBaseline, iv *Interval, leafIndex map[clocktree.NodeID]int, cfg Config, zk *ZoneKeyer,
) (zoneSolved, error) {
	faultinject.At(faultinject.SitePolarityZone)
	if cfg.IgnoreNonLeaf {
		zone.NonLeaves = nil
	}
	switch cfg.Algorithm {
	case ClkPeakMinBaseline:
		// PeakMin's estimate ignores time structure; for interval scoring
		// we still use its own objective value.
		picks, peak, err := solveZonePeakMin(ctx, cs, zone, iv, leafIndex)
		if err != nil {
			return zoneSolved{}, err
		}
		return zoneSolved{picks: picks, peak: peak}, nil
	default:
		var key string
		if zk != nil {
			key = zk.Key(zone, iv, leafIndex)
			if sol, ok := cfg.Zones.Lookup(key); ok && replayValid(sol, cs, zone, iv, leafIndex) {
				// Content hit: the key pins the exact solver input, so the
				// cached picks are what the solve below would compute —
				// skip building the instance entirely.
				if zsp := obs.FromContext(ctx); zsp != nil {
					zsp.Count("zone.replayed", 1)
				}
				return zoneSolved{picks: sol.Picks, peak: sol.Peak, reused: true}, nil
			}
		}
		feasible := make([][]int, len(zone.Leaves))
		layers := make([][][]waveform.Waveform, len(zone.Leaves))
		var cands int64
		for li, leaf := range zone.Leaves {
			feasible[li] = iv.Feasible[leafIndex[leaf]]
			layers[li] = make([][]waveform.Waveform, len(feasible[li]))
			for vi, ci := range feasible[li] {
				layers[li][vi] = cs.ByLeaf[leaf][ci].Waves[:]
			}
			cands += int64(len(feasible[li]))
		}
		obs.FromContext(ctx).Count("zone.candidates", cands)
		graph := ZoneGraph(cfg.Samples, zb.get(t, tm, zone.NonLeaves), layers)
		var sol mosp.Solution
		var err error
		switch cfg.Algorithm {
		case ClkWaveMin:
			sol, err = mosp.Solve(ctx, &graph.Graph, mosp.Options{Epsilon: cfg.Epsilon, MaxLabels: MaxLabels})
		case ClkWaveMinF:
			sol, err = mosp.SolveFast(ctx, &graph.Graph)
		default:
			err = fmt.Errorf("polarity: unknown algorithm %v", cfg.Algorithm)
		}
		graph.Release()
		if err != nil {
			return zoneSolved{}, err
		}
		picks := make([]int, len(sol.Picks))
		for li, vi := range sol.Picks {
			picks[li] = feasible[li][vi]
		}
		if zk != nil {
			cfg.Zones.Store(key, &zonecache.Solution{Picks: picks, Peak: sol.Max})
		}
		return zoneSolved{picks: picks, peak: sol.Max}, nil
	}
}

// replayValid defensively bounds-checks a cached solution against the live
// candidate set before replaying it: right leaf count, every pick a
// feasible candidate of its leaf. A mismatch (corrupt or aliased entry)
// falls back to a fresh solve — never an error.
func replayValid(sol *zonecache.Solution, cs *CandidateSet, zone Zone, iv *Interval, leafIndex map[clocktree.NodeID]int) bool {
	if len(sol.Picks) != len(zone.Leaves) {
		return false
	}
	for li, leaf := range zone.Leaves {
		p := sol.Picks[li]
		if p < 0 || p >= len(cs.ByLeaf[leaf]) {
			return false
		}
		ok := false
		for _, ci := range iv.Feasible[leafIndex[leaf]] {
			if ci == p {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// solveZonePeakMin runs the [27] baseline on one zone: per-element peaks
// (the maximum of each candidate's four waveform peaks), buffers vs
// inverters two-sum knapsack.
func solveZonePeakMin(
	ctx context.Context, cs *CandidateSet, zone Zone, iv *Interval, leafIndex map[clocktree.NodeID]int,
) (picks []int, peak float64, err error) {
	feasible := make([][]int, len(zone.Leaves))
	layers := make([][]peakmin.Option, len(zone.Leaves))
	for li, leaf := range zone.Leaves {
		feasible[li] = iv.Feasible[leafIndex[leaf]]
		for _, ci := range feasible[li] {
			c := &cs.ByLeaf[leaf][ci]
			p := 0.0
			for _, w := range c.Waves {
				if pk, _ := w.Peak(); pk > p {
					p = pk
				}
			}
			layers[li] = append(layers[li], peakmin.Option{Peak: p, IsBuffer: !c.Cell.Inverting()})
		}
		if len(layers[li]) == 0 {
			return nil, 0, fmt.Errorf("polarity: leaf %d infeasible in interval", leaf)
		}
	}
	sol, err := peakmin.Solve(ctx, layers, 0)
	if err != nil {
		return nil, 0, err
	}
	picks = make([]int, len(sol.Picks))
	for li, vi := range sol.Picks {
		picks[li] = feasible[li][vi]
	}
	return picks, sol.Max, nil
}

// EstimatePeak evaluates an arbitrary assignment with the optimizer's own
// noise model (max over zones, |S| samples) — used for apples-to-apples
// before/after comparisons and for Fig. 2-style studies.
func EstimatePeak(t *clocktree.Tree, cfg Config, a Assignment) (float64, error) {
	mode := cfg.Mode
	if mode.Name == "" {
		mode = clocktree.NominalMode
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 4
	}
	cs := BuildCandidates(t, cfg.Library, mode)
	tm := t.ComputeTiming(mode)
	worst := 0.0
	for _, zone := range LeafZones(PartitionZones(t, cfg.ZoneSize)) {
		// Every candidate is a vertex, so the graph's sample times are
		// those of a permissive interval that admits them all.
		layers := make([][][]waveform.Waveform, len(zone.Leaves))
		for li, leaf := range zone.Leaves {
			for ci := range cs.ByLeaf[leaf] {
				layers[li] = append(layers[li], cs.ByLeaf[leaf][ci].Waves[:])
			}
		}
		base := Baseline(t, tm, zone.NonLeaves)
		graph := ZoneGraph(cfg.Samples, base[:], layers)
		run := append([]float64(nil), graph.Baseline...)
		for li, leaf := range zone.Leaves {
			chosen := a[leaf]
			if chosen == nil {
				return 0, fmt.Errorf("polarity: leaf %d unassigned", leaf)
			}
			vi := -1
			for ci := range cs.ByLeaf[leaf] {
				if cs.ByLeaf[leaf][ci].Cell == chosen {
					vi = ci
					break
				}
			}
			if vi < 0 {
				return 0, fmt.Errorf("polarity: leaf %d cell %s not characterized", leaf, chosen.Name)
			}
			for s, w := range graph.Layers[li][vi].Weight {
				run[s] += w
			}
		}
		for _, v := range run {
			if v > worst {
				worst = v
			}
		}
	}
	return worst, nil
}
