// Package multimode implements ClkWaveMin-M (paper §VI, Fig. 13): clock
// buffer polarity assignment with sizing for designs with multiple power
// modes.
//
// The clock skew bound must hold in *every* mode. Feasible arrival-time
// intervals are computed per mode, then intersected: an intersection keeps,
// for each sink, the cell types feasible in all modes' windows at once
// (paper Fig. 11, Table IV). Intersections are pruned by their degree of
// freedom (Fig. 14: more freedom correlates with lower noise). The noise
// of each mode becomes extra dimensions of the MOSP weight vectors
// (Fig. 12), so the single-mode machinery of internal/mosp solves the
// multi-mode min–max directly.
//
// When sizing and polarity alone cannot satisfy κ, ADBs are inserted first
// (internal/adb); ADB sites may then be re-assigned to ADIs — the paper's
// proposed adjustable delay inverter — but never back to plain cells, and
// plain sites never become adjustable (paper §VI restriction).
package multimode

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"wavemin/internal/adb"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
	"wavemin/internal/faultinject"
	"wavemin/internal/mosp"
	"wavemin/internal/obs"
	"wavemin/internal/parallel"
	"wavemin/internal/polarity"
	"wavemin/internal/waveform"
)

// Config parameterizes the multi-mode optimization.
type Config struct {
	// Library provides the plain cells (B ∪ I) offered at non-ADB sites.
	Library *cell.Library
	// ADBCell is used for skew-fixing insertion and offered at ADB sites.
	ADBCell *cell.Cell
	// ADICell, when non-nil, is offered at ADB sites as the inverting
	// alternative. Nil disables ADIs (the Observation-3 ablation).
	ADICell *cell.Cell

	Kappa    float64 // skew bound, every mode, ps
	Samples  int     // |S| per mode (split over the four rail/edge groups)
	Epsilon  float64 // Warburton ε for the per-zone solver
	ZoneSize float64 // µm; 0 = polarity.DefaultZoneSize
	Fast     bool    // use the ClkWaveMin-f per-zone heuristic

	// PerModeIntervals caps the per-mode feasible interval lists before
	// the cartesian product (taken in DoF order); 0 = 6.
	PerModeIntervals int
	// MaxIntersections caps how many feasible intersections are fully
	// optimized (DoF order); 0 = 12.
	MaxIntersections int
	// IntervalSpread changes the per-mode interval cap from "top N by
	// degree of freedom" to "N evenly spaced across the DoF range" —
	// used by the Fig. 14 study, which needs poor intersections too.
	IntervalSpread bool
	// Workers bounds the goroutines fanned out over the per-intersection
	// zone solves (each zone's MOSP instance is independent). The
	// intersection loop itself stays serial so nesting cannot multiply
	// goroutine counts. 0 = GOMAXPROCS, 1 = serial; results are identical
	// for every worker count.
	Workers int
}

// Window is one mode's arrival-time window [Lo, Hi].
type Window struct{ Lo, Hi float64 }

// Intersection is one combination of per-mode windows with the per-leaf
// surviving candidate sets.
type Intersection struct {
	Windows  []Window
	Feasible [][]int // [leaf index][candidate index into Problem cands]
	DoF      int
}

// cand is one (leaf, cell) option characterized in every mode, at zero
// bank steps.
type cand struct {
	c       *cell.Cell
	perMode []polarity.Candidate
}

func (c *cand) adjMax() float64 {
	if c.c.Adjustable() {
		return c.c.MaxAdjust()
	}
	return 0
}

// stepsFor returns the minimal bank steps putting the candidate's arrival
// inside [lo, hi] in the given mode, and whether that is possible.
func (c *cand) stepsFor(mode int, lo, hi float64) (int, bool) {
	at := c.perMode[mode].AT
	if at > hi+1e-9 {
		return 0, false
	}
	if at >= lo-1e-9 {
		return 0, true
	}
	if !c.c.Adjustable() {
		return 0, false
	}
	steps := int(math.Ceil((lo-at)/c.c.StepPs - 1e-9))
	if steps > c.c.MaxSteps {
		return 0, false
	}
	if at+float64(steps)*c.c.StepPs > hi+1e-9 {
		return 0, false
	}
	return steps, true
}

// Problem is the assembled multi-mode instance.
type Problem struct {
	tree    *clocktree.Tree
	modes   []clocktree.Mode
	cfg     Config
	timings []*clocktree.Timing
	leaves  []clocktree.NodeID
	cands   [][]cand // [leaf index][candidate]
	zones   []polarity.Zone
}

// NewProblem characterizes candidates for every leaf in every mode. The
// tree must already meet κ via ADBs if sizing alone cannot (see Optimize,
// which handles insertion).
func NewProblem(t *clocktree.Tree, modes []clocktree.Mode, cfg Config) (*Problem, error) {
	if cfg.Library == nil {
		return nil, fmt.Errorf("multimode: nil library")
	}
	if cfg.Kappa <= 0 {
		return nil, fmt.Errorf("multimode: non-positive kappa")
	}
	if len(modes) == 0 {
		return nil, fmt.Errorf("multimode: no modes")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 4
	}
	p := &Problem{tree: t, modes: modes, cfg: cfg}
	for _, m := range modes {
		p.timings = append(p.timings, t.ComputeTiming(m))
	}
	p.leaves = t.Leaves()
	p.zones = polarity.LeafZones(polarity.PartitionZones(t, cfg.ZoneSize))

	var plain []*cell.Cell
	for _, c := range cfg.Library.Cells() {
		if !c.Adjustable() {
			plain = append(plain, c)
		}
	}
	for _, leaf := range p.leaves {
		nd := t.Node(leaf)
		var options []*cell.Cell
		if nd.Cell.Adjustable() {
			// ADB site: ADB or (if enabled) ADI only (§VI restriction).
			adbCell := cfg.ADBCell
			if adbCell == nil {
				adbCell = nd.Cell
			}
			options = append(options, adbCell)
			if cfg.ADICell != nil {
				options = append(options, cfg.ADICell)
			}
		} else {
			options = plain
		}
		var cs []cand
		for _, c := range options {
			k := cand{c: c, perMode: make([]polarity.Candidate, len(modes))}
			for mi, m := range modes {
				k.perMode[mi] = polarity.Characterize(t, p.timings[mi], m, leaf, c)
			}
			cs = append(cs, k)
		}
		p.cands = append(p.cands, cs)
	}
	return p, nil
}

// Leaves exposes the leaf order used by candidate/feasibility indexing.
func (p *Problem) Leaves() []clocktree.NodeID { return p.leaves }

// CandidateCells lists the cells offered to the leaf at index li.
func (p *Problem) CandidateCells(li int) []*cell.Cell {
	out := make([]*cell.Cell, len(p.cands[li]))
	for i, c := range p.cands[li] {
		out[i] = c.c
	}
	return out
}

// modeIntervals enumerates feasible windows for one mode, DoF-ordered.
func (p *Problem) modeIntervals(mi int) []Window {
	var anchors []float64
	for _, cs := range p.cands {
		for _, c := range cs {
			anchors = append(anchors, c.perMode[mi].AT, c.perMode[mi].AT+c.adjMax())
		}
	}
	sort.Float64s(anchors)
	type scored struct {
		w   Window
		dof int
		sig string
	}
	var out []scored
	seen := map[string]bool{}
	for i, t := range anchors {
		if i > 0 && t-anchors[i-1] < 1e-9 {
			continue
		}
		w := Window{Lo: t - p.cfg.Kappa, Hi: t}
		dof := 0
		ok := true
		var sig strings.Builder
		for li := range p.cands {
			n := 0
			for ci := range p.cands[li] {
				if _, feas := p.cands[li][ci].stepsFor(mi, w.Lo, w.Hi); feas {
					n++
					fmt.Fprintf(&sig, "%d.%d,", li, ci)
				}
			}
			if n == 0 {
				ok = false
				break
			}
			dof += n
		}
		if !ok || seen[sig.String()] {
			continue
		}
		seen[sig.String()] = true
		out = append(out, scored{w: w, dof: dof})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].dof > out[j].dof })
	limit := p.cfg.PerModeIntervals
	if limit <= 0 {
		limit = 6
	}
	if len(out) > limit {
		if p.cfg.IntervalSpread {
			// Even subsample across the DoF-sorted list: keeps the best
			// first but also the poor tail (the Fig. 14 scatter).
			picked := make([]scored, 0, limit)
			for i := 0; i < limit; i++ {
				picked = append(picked, out[i*(len(out)-1)/(limit-1)])
			}
			out = picked
		} else {
			out = out[:limit]
		}
	}
	ws := make([]Window, len(out))
	for i, s := range out {
		ws[i] = s.w
	}
	return ws
}

// Intersections enumerates feasible intersections of per-mode windows,
// sorted by decreasing degree of freedom.
func (p *Problem) Intersections() []Intersection {
	perMode := make([][]Window, len(p.modes))
	for mi := range p.modes {
		perMode[mi] = p.modeIntervals(mi)
		if len(perMode[mi]) == 0 {
			return nil
		}
	}
	var out []Intersection
	combo := make([]int, len(p.modes))
	var rec func(mi int)
	rec = func(mi int) {
		if mi == len(p.modes) {
			ix := Intersection{Windows: make([]Window, len(p.modes))}
			for m, c := range combo {
				ix.Windows[m] = perMode[m][c]
			}
			ix.Feasible = make([][]int, len(p.cands))
			for li := range p.cands {
				for ci := range p.cands[li] {
					feasAll := true
					for m := range p.modes {
						if _, feas := p.cands[li][ci].stepsFor(m, ix.Windows[m].Lo, ix.Windows[m].Hi); !feas {
							feasAll = false
							break
						}
					}
					if feasAll {
						ix.Feasible[li] = append(ix.Feasible[li], ci)
					}
				}
				if len(ix.Feasible[li]) == 0 {
					return // infeasible intersection
				}
				ix.DoF += len(ix.Feasible[li])
			}
			out = append(out, ix)
			return
		}
		for c := range perMode[mi] {
			combo[mi] = c
			rec(mi + 1)
		}
	}
	rec(0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].DoF > out[j].DoF })
	return out
}

// Result is a committed multi-mode optimization outcome.
type Result struct {
	Assignment   polarity.Assignment
	Steps        map[clocktree.NodeID]map[string]int // adjustable sites
	NumADBs      int
	NumADIs      int
	ADBInserted  int // ADBs placed by the insertion phase
	PeakEstimate float64
	// MeanZonePeak averages the per-zone optimized peak estimates — a
	// smoother per-intersection quality signal than the max (used by the
	// Fig. 14 study).
	MeanZonePeak float64
	Windows      []Window // chosen per-mode windows
	Feasible     int      // feasible intersections found
	Tried        int      // intersections fully optimized
}

// zoneResult is one zone's solved outcome: the chosen cell (and bank
// steps, for adjustable sites) per leaf of the zone, plus the optimizer's
// peak estimate.
type zoneResult struct {
	cells []*cell.Cell
	steps []map[string]int // nil entry = not adjustable
	peak  float64
}

// OptimizeIntersection solves every zone within one intersection. The
// independent per-zone MOSP instances fan out over cfg.Workers goroutines
// and merge in zone order, so the result is identical for any worker
// count. Cancellation is forwarded into every per-zone solver.
func (p *Problem) OptimizeIntersection(ctx context.Context, ix *Intersection) (*Result, error) {
	res := &Result{
		Assignment: make(polarity.Assignment),
		Steps:      make(map[clocktree.NodeID]map[string]int),
		Windows:    ix.Windows,
	}
	leafIdx := make(map[clocktree.NodeID]int, len(p.leaves))
	for i, l := range p.leaves {
		leafIdx[l] = i
	}
	sp := obs.FromContext(ctx)
	solved := make([]zoneResult, len(p.zones))
	ferr := parallel.ForEach(ctx, p.cfg.Workers, len(p.zones), func(i int) error {
		zctx := ctx
		if zsp := sp.ChildAt(i, "zone"); zsp != nil {
			defer zsp.End()
			zsp.Count("zone.leaves", int64(len(p.zones[i].Leaves)))
			zctx = obs.WithSpan(ctx, zsp)
		}
		zr, err := p.solveZone(zctx, ix, &p.zones[i], leafIdx)
		if err != nil {
			return err
		}
		solved[i] = zr
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	for i := range p.zones {
		zr := &solved[i]
		for zi, leaf := range p.zones[i].Leaves {
			res.Assignment[leaf] = zr.cells[zi]
			if zr.steps[zi] != nil {
				res.Steps[leaf] = zr.steps[zi]
			}
		}
		if zr.peak > res.PeakEstimate {
			res.PeakEstimate = zr.peak
		}
		res.MeanZonePeak += zr.peak
	}
	if len(p.zones) > 0 {
		res.MeanZonePeak /= float64(len(p.zones))
	}
	for _, c := range res.Assignment {
		switch c.Kind {
		case cell.ADB:
			res.NumADBs++
		case cell.ADI:
			res.NumADIs++
		}
	}
	return res, nil
}

// solveZone builds and solves one zone's multi-mode MOSP instance: every
// power mode contributes its four sampling groups (Fig. 12). It runs on
// worker goroutines; the Problem is read-only here and the zone is taken
// by pointer but never mutated.
func (p *Problem) solveZone(
	ctx context.Context, ix *Intersection, zone *polarity.Zone, leafIdx map[clocktree.NodeID]int,
) (zoneResult, error) {
	faultinject.At(faultinject.SiteMultimodeZone)
	// Per (leaf, feasible candidate): its bank steps per mode, and in
	// layers its step-shifted waveforms, mode-major by group.
	type zcand struct {
		ci    int
		steps []int // per mode
	}
	feas := make([][]zcand, len(zone.Leaves))
	layers := make([][][]waveform.Waveform, len(zone.Leaves))
	var cands int64
	for zi, leaf := range zone.Leaves {
		li := leafIdx[leaf]
		for _, ci := range ix.Feasible[li] {
			c := &p.cands[li][ci]
			zc := zcand{ci: ci, steps: make([]int, len(p.modes))}
			ok := true
			for mi := range p.modes {
				s, feasOK := c.stepsFor(mi, ix.Windows[mi].Lo, ix.Windows[mi].Hi)
				if !feasOK {
					ok = false
					break
				}
				zc.steps[mi] = s
			}
			if !ok {
				continue
			}
			ws := make([]waveform.Waveform, 0, len(p.modes)*int(polarity.NumGroups))
			for mi := range p.modes {
				shift := float64(zc.steps[mi]) * stepPsOf(c.c)
				for _, w := range c.perMode[mi].Waves {
					ws = append(ws, w.Shift(shift))
				}
			}
			feas[zi] = append(feas[zi], zc)
			layers[zi] = append(layers[zi], ws)
		}
		if len(feas[zi]) == 0 {
			return zoneResult{}, fmt.Errorf("multimode: zone %v leaf %d infeasible", zone.Key, leaf)
		}
		cands += int64(len(feas[zi]))
	}
	obs.FromContext(ctx).Count("zone.candidates", cands)
	baseline := make([]waveform.Waveform, 0, len(p.modes)*int(polarity.NumGroups))
	for mi := range p.modes {
		base := polarity.Baseline(p.tree, p.timings[mi], zone.NonLeaves)
		baseline = append(baseline, base[:]...)
	}
	graph := polarity.ZoneGraph(p.cfg.Samples, baseline, layers)
	var sol mosp.Solution
	var err error
	if p.cfg.Fast {
		sol, err = mosp.SolveFast(ctx, &graph.Graph)
	} else {
		sol, err = mosp.Solve(ctx, &graph.Graph, mosp.Options{Epsilon: p.cfg.Epsilon, MaxLabels: polarity.MaxLabels})
	}
	graph.Release()
	if err != nil {
		return zoneResult{}, err
	}
	zr := zoneResult{
		cells: make([]*cell.Cell, len(zone.Leaves)),
		steps: make([]map[string]int, len(zone.Leaves)),
		peak:  sol.Max,
	}
	for zi, leaf := range zone.Leaves {
		zc := feas[zi][sol.Picks[zi]]
		chosen := p.cands[leafIdx[leaf]][zc.ci]
		zr.cells[zi] = chosen.c
		if chosen.c.Adjustable() {
			st := make(map[string]int, len(p.modes))
			for mi, m := range p.modes {
				st[m.Name] = zc.steps[mi]
			}
			zr.steps[zi] = st
		}
	}
	return zr, nil
}

func stepPsOf(c *cell.Cell) float64 {
	if c.Adjustable() {
		return c.StepPs
	}
	return 0
}

// Optimize runs the full ClkWaveMin-M flow on the tree: if sizing and
// polarity cannot meet κ in all modes, ADBs are inserted (mutating the
// tree); then candidates are built, intersections enumerated, and the
// best-DoF intersections optimized. The returned result is not yet
// applied; call ApplyResult. Cancellation is checked per intersection and
// forwarded into the per-zone solves.
func Optimize(ctx context.Context, t *clocktree.Tree, modes []clocktree.Mode, cfg Config) (*Result, error) {
	ctx, sp := obs.Start(ctx, "multimode")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("modes", fmt.Sprintf("%d", len(modes)))
		sp.SetAttr("fast", fmt.Sprintf("%t", cfg.Fast))
	}
	inserted := 0
	p, err := NewProblem(t, modes, cfg)
	if err != nil {
		return nil, err
	}
	ixs := p.Intersections()
	if len(ixs) == 0 {
		// Sizing/polarity alone cannot hold κ everywhere: insert ADBs
		// (Fig. 13's Insert-ADB module) and rebuild.
		adbCell := cfg.ADBCell
		if adbCell == nil {
			return nil, fmt.Errorf("multimode: infeasible without ADBs and no ADB cell configured")
		}
		ins, err := adb.Insert(ctx, t, adbCell, modes, cfg.Kappa)
		if err != nil {
			return nil, fmt.Errorf("multimode: ADB insertion: %w", err)
		}
		inserted = ins.NumADBs()
		p, err = NewProblem(t, modes, cfg)
		if err != nil {
			return nil, err
		}
		ixs = p.Intersections()
		if len(ixs) == 0 {
			return nil, fmt.Errorf("multimode: no feasible intersection even after %d ADBs", inserted)
		}
	}
	maxIx := cfg.MaxIntersections
	if maxIx <= 0 {
		maxIx = 12
	}
	tried := ixs
	if len(tried) > maxIx {
		tried = tried[:maxIx]
	}
	sp.Count("multimode.intersections_feasible", int64(len(ixs)))
	sp.Count("multimode.intersections_tried", int64(len(tried)))
	sp.Count("multimode.adbs_inserted", int64(inserted))
	var best *Result
	for i := range tried {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		isp := sp.ChildAt(i, "intersection")
		isp.Count("intersection.dof", int64(tried[i].DoF))
		res, err := p.OptimizeIntersection(obs.WithSpan(ctx, isp), &tried[i])
		isp.End()
		if err != nil {
			return nil, err
		}
		isp.Gauge("intersection.peak_estimate", res.PeakEstimate)
		if best == nil || res.PeakEstimate < best.PeakEstimate {
			best = res
		}
	}
	best.Feasible = len(ixs)
	best.Tried = len(tried)
	best.ADBInserted = inserted
	return best, nil
}

// ApplyResult commits the assignment and bank settings to the tree, then
// retunes the adjustable sites against the realized timing: committing the
// assignment shifts parent loads slightly (the second-order effect
// Observation 4 neglects), and the per-mode banks absorb that drift. The
// retune error is returned when the drift exceeds what the banks can fix
// (only possible with very tight κ and no adjustable sites).
func ApplyResult(ctx context.Context, t *clocktree.Tree, modes []clocktree.Mode, kappa float64, res *Result) error {
	for leaf, c := range res.Assignment {
		t.SetCell(leaf, c)
		if st, ok := res.Steps[leaf]; ok {
			for mode, steps := range st {
				t.SetAdjustSteps(leaf, mode, steps)
			}
		}
	}
	if len(adb.Sites(t)) == 0 {
		return nil // nothing to retune; callers tolerate plain-cell drift
	}
	_, err := adb.Retune(ctx, t, modes, kappa)
	return err
}
