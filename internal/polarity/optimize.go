package polarity

import (
	"context"
	"fmt"
	"math"
	"sort"

	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/faultinject"
	"wavemin/internal/mosp"
	"wavemin/internal/obs"
	"wavemin/internal/parallel"
	"wavemin/internal/peakmin"
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
	// MaxLabels caps the per-layer Pareto label set in the ClkWaveMin
	// solver; big clustered zones degrade gracefully instead of blowing
	// up. 0 = 4000.
	MaxLabels int
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
	// instances replayed from seeded solutions, instances actually solved,
	// and warm-start labels seeded into re-solved instances.
	ZonesReused    int
	ZonesResolved  int
	WarmStartLabel int
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
	if cfg.MaxLabels <= 0 {
		cfg.MaxLabels = 4000
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
	intervals, err := FeasibleIntervals(cs, cfg.Kappa)
	if err != nil {
		return nil, err
	}
	sp.Count("polarity.intervals_found", int64(len(intervals)))
	// Richer intervals first (degree-of-freedom pruning).
	sort.SliceStable(intervals, func(i, j int) bool {
		return intervals[i].DegreeOfFreedom() > intervals[j].DegreeOfFreedom()
	})
	if cfg.MaxIntervals > 0 && len(intervals) > cfg.MaxIntervals {
		intervals = intervals[:cfg.MaxIntervals]
	}

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
		s, err := solveZone(zctx, t, tm, cs, zones[zi], &intervals[ii], leafIndex, cfg, zk)
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
				best.WarmStartLabel += solved[i].warm
			}
		}
		sp.Count("eco.zones_reused", int64(best.ZonesReused))
		sp.Count("eco.zones_resolved", int64(best.ZonesResolved))
		sp.Count("eco.warmstart_labels", int64(best.WarmStartLabel))
	}
	return best, nil
}

// zoneSolved is one (interval, zone) outcome: candidate-index picks per
// leaf plus the solver's peak estimate, and the ECO accounting for the
// instance (replayed from cache vs solved, warm-start labels seeded).
type zoneSolved struct {
	picks  []int
	peak   float64
	reused bool
	warm   int
}

// solveZone solves a single (interval, zone) instance. It runs on worker
// goroutines: everything it touches is either read-only shared state (the
// tree, timing, candidate set) or per-call (the zone is a value copy, so
// the IgnoreNonLeaf mutation stays local).
func solveZone(
	ctx context.Context, t *clocktree.Tree, tm *clocktree.Timing, cs *CandidateSet,
	zone Zone, iv *Interval, leafIndex map[clocktree.NodeID]int, cfg Config, zk *ZoneKeyer,
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
		zi, err := BuildZoneInstance(t, tm, cs, zone, iv, leafIndex, cfg.Samples)
		if err != nil {
			return zoneSolved{}, err
		}
		if zsp := obs.FromContext(ctx); zsp != nil {
			var cands int64
			for _, l := range zi.Graph.Layers {
				cands += int64(len(l))
			}
			zsp.Count("zone.candidates", cands)
		}
		var sol mosp.Solution
		var info mosp.SolveInfo
		var warm int
		switch cfg.Algorithm {
		case ClkWaveMin:
			opts := mosp.Options{Epsilon: cfg.Epsilon, MaxLabels: cfg.MaxLabels}
			if zk != nil {
				opts.Info = &info
				if labels, front, ok := cfg.Zones.Warm(zone.Key); ok {
					// Output-neutral warm start: prior effort for this
					// spatial zone pre-sizes the solver's arenas.
					opts.WarmLabels, opts.WarmFrontier = labels, front
					warm = labels
				}
			}
			sol, err = mosp.Solve(ctx, zi.Graph, opts)
		case ClkWaveMinF:
			sol, err = mosp.SolveFast(ctx, zi.Graph)
		default:
			return zoneSolved{}, fmt.Errorf("polarity: unknown algorithm %v", cfg.Algorithm)
		}
		if err != nil {
			return zoneSolved{}, err
		}
		picks := make([]int, len(sol.Picks))
		for li, pi := range sol.Picks {
			picks[li] = zi.Graph.Layers[li][pi].Tag
		}
		if zk != nil {
			cfg.Zones.Store(key, &zonecache.Solution{
				Zone: zone.Key, Picks: picks, Peak: sol.Max,
				Expanded: info.Expanded, Frontier: info.Frontier,
			})
		}
		return zoneSolved{picks: picks, peak: sol.Max, warm: warm}, nil
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
	layers := make([][]peakmin.Option, len(zone.Leaves))
	tags := make([][]int, len(zone.Leaves))
	for li, leaf := range zone.Leaves {
		gi := leafIndex[leaf]
		cands := cs.ByLeaf[leaf]
		for _, ci := range iv.Feasible[gi] {
			c := &cands[ci]
			p := 0.0
			for g := Group(0); g < NumGroups; g++ {
				if pk, _ := c.Wave(g).Peak(); pk > p {
					p = pk
				}
			}
			layers[li] = append(layers[li], peakmin.Option{
				Peak:     p,
				IsBuffer: !c.Cell.Inverting(),
				Tag:      ci,
			})
			tags[li] = append(tags[li], ci)
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
	for li, pi := range sol.Picks {
		picks[li] = tags[li][pi]
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
	zones := LeafZones(PartitionZones(t, cfg.ZoneSize))
	leafIndex := make(map[clocktree.NodeID]int)
	for i, leaf := range cs.Leaves() {
		leafIndex[leaf] = i
	}
	// A permissive interval covering all candidates (estimation only).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, cands := range cs.ByLeaf {
		for _, c := range cands {
			lo = math.Min(lo, c.AT)
			hi = math.Max(hi, c.AT)
		}
	}
	leaves := cs.Leaves()
	iv := &Interval{Lo: lo, Hi: hi, Feasible: make([][]int, len(leaves))}
	for li, leaf := range leaves {
		for ci := range cs.ByLeaf[leaf] {
			iv.Feasible[li] = append(iv.Feasible[li], ci)
		}
	}
	worst := 0.0
	for _, zone := range zones {
		zi, err := BuildZoneInstance(t, tm, cs, zone, iv, leafIndex, cfg.Samples)
		if err != nil {
			return 0, err
		}
		p, err := zi.EstimateZonePeak(cs, a)
		if err != nil {
			return 0, err
		}
		if p > worst {
			worst = p
		}
	}
	return worst, nil
}
