// Package mosp solves the multi-objective shortest path problem on the
// layered DAGs produced by the WaveMin→MOSP conversion (paper §V-B,
// Algorithm 1, Fig. 9).
//
// Graph shape: one layer per sink; one vertex per feasible (sink, cell)
// assignment; every vertex of layer i has an arc from every vertex of
// layer i−1; arc weights depend only on the destination vertex (the noise
// vector of that assignment over the sample set S); arcs into the dest
// vertex carry the non-leaf baseline vector (Observation 1). A src→dest
// path therefore picks exactly one vertex per layer and its cost is the
// component-wise sum of the picked weights plus the baseline.
//
// Solvers:
//
//   - Solve: label-correcting Pareto dynamic programming with Warburton's
//     coordinate-scaling ε-approximation [33] plus an admissible incumbent
//     bound, returning the min–max (max-ordering) path.
//   - SolveGreedy: layer-by-layer greedy; used for the incumbent bound.
//   - SolveFast: the paper's ClkWaveMin-f vertex-selection heuristic.
//   - SolveExhaustive: brute force, the test oracle.
//
// Memory: cost vectors live in two chunked float arenas that
// double-buffer across layers, label structs come from a chunked slab
// (stable addresses, so prev chains survive), and round-key deduplication
// hashes the quantized coordinates one 64-bit word per xor-multiply step
// (FNV-1a's step, word-wise) with collision-checked equality instead of a
// string-keyed map. All of it is one workspace that each solve takes from
// a sync.Pool and gives back trimmed to about 2 MiB (see workspace), so
// once the pool is warm a repeated Solve allocates only its result, the
// greedy incumbent and a few sort closures.
package mosp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"wavemin/internal/faultinject"
	"wavemin/internal/obs"
)

// solveStats accumulates hot-loop counters. It is allocated only when the
// context carries a telemetry span, so the disabled path stays exactly as
// allocation-free as before; the loop guards are plain nil checks.
type solveStats struct {
	expanded  int64 // labels materialized (post incumbent prune)
	pruned    int64 // partial paths killed by the incumbent bound
	dedupHits int64 // Warburton round-key merges
	capped    int64 // layers where the MaxLabels safety valve fired
}

// flush records the counters onto the span (nil-safe).
func (st *solveStats) flush(sp *obs.Span) {
	if st == nil {
		return
	}
	sp.Count("mosp.labels_expanded", st.expanded)
	sp.Count("mosp.pruned", st.pruned)
	sp.Count("mosp.dedup_hits", st.dedupHits)
	sp.Count("mosp.capped_layers", st.capped)
}

// Vertex is one assignment option in a layer.
type Vertex struct {
	// Weight is the option's noise vector over the sample set (length =
	// the graph dimension r).
	Weight []float64
}

// Graph is a layered MOSP instance.
type Graph struct {
	// Baseline is the weight of every arc into dest: the accumulated
	// non-leaf noise vector. May be nil (treated as zero).
	Baseline []float64
	// Layers holds the per-sink option vertices. Every layer must be
	// non-empty.
	Layers [][]Vertex
}

// Dim returns the weight dimension r.
func (g *Graph) Dim() int {
	if len(g.Baseline) > 0 {
		return len(g.Baseline)
	}
	for _, l := range g.Layers {
		for _, v := range l {
			return len(v.Weight)
		}
	}
	return 0
}

// Validate checks structural consistency: non-empty layers, uniform
// dimension, non-negative finite weights (noise values are currents).
func (g *Graph) Validate() error {
	r := g.Dim()
	if r == 0 {
		return fmt.Errorf("mosp: zero-dimensional graph")
	}
	if g.Baseline != nil && len(g.Baseline) != r {
		return fmt.Errorf("mosp: baseline dim %d != %d", len(g.Baseline), r)
	}
	for _, b := range g.Baseline {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("mosp: bad baseline value %g", b)
		}
	}
	if len(g.Layers) == 0 {
		return fmt.Errorf("mosp: no layers")
	}
	for i, l := range g.Layers {
		if len(l) == 0 {
			return fmt.Errorf("mosp: layer %d empty (infeasible instance)", i)
		}
		for j, v := range l {
			if len(v.Weight) != r {
				return fmt.Errorf("mosp: layer %d vertex %d dim %d != %d", i, j, len(v.Weight), r)
			}
			for _, w := range v.Weight {
				if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return fmt.Errorf("mosp: layer %d vertex %d bad weight %g", i, j, w)
				}
			}
		}
	}
	return nil
}

// Solution is a src→dest path: one pick per layer.
type Solution struct {
	Picks []int     // vertex index per layer
	Cost  []float64 // exact summed vector including the baseline
	Max   float64   // max over Cost — the min–max objective value
}

func (g *Graph) solutionFor(picks []int) Solution {
	r := g.Dim()
	cost := make([]float64, r) // make zeroes; copy below covers a nil baseline
	copy(cost, g.Baseline)
	for li, pi := range picks {
		for s, w := range g.Layers[li][pi].Weight {
			cost[s] += w
		}
	}
	m := math.Inf(-1)
	for _, c := range cost {
		if c > m {
			m = c
		}
	}
	return Solution{Picks: picks, Cost: cost, Max: m}
}

// SolveGreedy picks, layer by layer, the vertex minimizing the running
// max (baseline included). Fast, and its value upper-bounds the optimum —
// used as the incumbent for Solve's pruning.
func SolveGreedy(g *Graph) (Solution, error) {
	if err := g.Validate(); err != nil {
		return Solution{}, err
	}
	r := g.Dim()
	run := make([]float64, r)
	copy(run, g.Baseline)
	picks := make([]int, len(g.Layers))
	for li, layer := range g.Layers {
		best, bestMax := -1, math.Inf(1)
		for vi, v := range layer {
			m := math.Inf(-1)
			for s := 0; s < r; s++ {
				if c := run[s] + v.Weight[s]; c > m {
					m = c
				}
			}
			if m < bestMax {
				best, bestMax = vi, m
			}
		}
		picks[li] = best
		for s := 0; s < r; s++ {
			run[s] += layer[best].Weight[s]
		}
	}
	return g.solutionFor(picks), nil
}

// fastEntry is one layer's cached best in SolveFast's lazy heap: the
// least noise-worsening M over the layer's vertices, computed against the
// running sum at some earlier round.
type fastEntry struct {
	m  float64
	li int // layer index (also the tie-break: lower layer wins)
	vi int // first vertex achieving m in layer scan order
}

func fastLess(a, b fastEntry) bool {
	return a.m < b.m || (a.m == b.m && a.li < b.li)
}

func fastSiftDown(h []fastEntry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && fastLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && fastLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// SolveFast implements the paper's ClkWaveMin-f (§V-C): starting from the
// non-leaf baseline, repeatedly select — over all still-unassigned layers
// and all their vertices — the vertex v with the least noise-worsening
// M(v) = max_s(sum_s + noise(v,s)), assign it, and remove its layer.
//
// Rather than rescanning every remaining layer each round (O(|S|·|L|²·W)),
// each layer's best (M, vertex) is cached in a min-heap keyed by (M,
// layer). The running sum only ever grows, so a cached M is a lower bound
// on the layer's true M; per round only the layers that surface at the
// heap top are recomputed against the current sum, and a layer whose
// recomputed M still wins the (M, layer) order is exactly the pick the
// full rescan would have made — including ties, which both orders break
// toward the lower layer index and the first vertex in scan order.
// Cancellation is checked once per selection round.
func SolveFast(ctx context.Context, g *Graph) (Solution, error) {
	if err := g.Validate(); err != nil {
		return Solution{}, err
	}
	faultinject.At(faultinject.SiteMospSolveFast)
	sp := obs.FromContext(ctx)
	var recomputes int64
	r := g.Dim()
	sum := make([]float64, r)
	copy(sum, g.Baseline)
	nl := len(g.Layers)
	picks := make([]int, nl)
	for i := range picks {
		picks[i] = -1
	}

	recompute := func(li int) (float64, int) {
		bestVi, bestM := -1, math.Inf(1)
		for vi, v := range g.Layers[li] {
			m := math.Inf(-1)
			for s := 0; s < r; s++ {
				if c := sum[s] + v.Weight[s]; c > m {
					m = c
				}
			}
			if m < bestM {
				bestVi, bestM = vi, m
			}
		}
		return bestM, bestVi
	}

	heap := make([]fastEntry, nl)
	stamp := make([]int, nl) // round at which heap entry li was computed
	for li := range g.Layers {
		m, vi := recompute(li)
		heap[li] = fastEntry{m: m, li: li, vi: vi}
	}
	for i := nl/2 - 1; i >= 0; i-- {
		fastSiftDown(heap, i)
	}

	for round := 0; round < nl; round++ {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		// Settle the top: recompute stale entries (their M can only have
		// grown) until the minimum is current.
		for stamp[heap[0].li] != round {
			li := heap[0].li
			heap[0].m, heap[0].vi = recompute(li)
			if sp != nil {
				recomputes++
			}
			stamp[li] = round
			fastSiftDown(heap, 0)
		}
		e := heap[0]
		picks[e.li] = e.vi
		for s, w := range g.Layers[e.li][e.vi].Weight {
			sum[s] += w
		}
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		if len(heap) > 0 {
			fastSiftDown(heap, 0)
		}
	}
	if sp != nil {
		sp.Count("mosp.fast_rounds", int64(nl))
		sp.Count("mosp.fast_recomputes", recomputes)
	}
	return g.solutionFor(picks), nil
}

// SolveExhaustive enumerates every path — the test oracle. It refuses
// instances with more than ~200k paths.
func SolveExhaustive(g *Graph) (Solution, error) {
	if err := g.Validate(); err != nil {
		return Solution{}, err
	}
	paths := 1
	for _, l := range g.Layers {
		paths *= len(l)
		if paths > 200_000 {
			return Solution{}, fmt.Errorf("mosp: exhaustive refused (%d+ paths)", paths)
		}
	}
	r := g.Dim()
	picks := make([]int, len(g.Layers))
	bestPicks := make([]int, len(g.Layers))
	bestMax := math.Inf(1)
	run := make([]float64, r)
	copy(run, g.Baseline)
	var rec func(li int)
	rec = func(li int) {
		if li == len(g.Layers) {
			m := math.Inf(-1)
			for _, c := range run {
				if c > m {
					m = c
				}
			}
			if m < bestMax {
				bestMax = m
				copy(bestPicks, picks)
			}
			return
		}
		for vi, v := range g.Layers[li] {
			picks[li] = vi
			for s, w := range v.Weight {
				run[s] += w
			}
			rec(li + 1)
			for s, w := range v.Weight {
				run[s] -= w
			}
		}
	}
	rec(0)
	return g.solutionFor(bestPicks), nil
}

// label is a partial path in the Pareto DP. Label structs are slab
// allocated (stable addresses) and their cost slices point into the
// workspace's float arenas.
type label struct {
	cost  []float64 // exact, baseline included
	max   float64   // max over cost
	layer int32     // last assigned layer
	pick  int32     // vertex picked in that layer
	prev  *label
}

// Options tunes Solve.
type Options struct {
	// Epsilon is Warburton's approximation parameter: the returned min–max
	// value is within (1+Epsilon) of optimal (subject to MaxLabels).
	Epsilon float64
	// MaxLabels caps the label set per layer as a memory/time safety
	// valve. When hit, the labels with the smallest current max survive;
	// the ε guarantee then degrades gracefully. 0 = default.
	MaxLabels int
}

// DefaultMaxLabels bounds the per-layer Pareto set.
const DefaultMaxLabels = 50_000

// floatChunkSize is the float arenas' chunk length in float64s (128 KiB);
// a dimension r above floatChunkSize/4 gets chunks of 4r instead.
const floatChunkSize = 1 << 14

// floatArena hands out fixed-dimension cost vectors from chunked backing
// arrays. Chunks are never reallocated, so previously returned slices
// stay valid until reset; reset recycles all chunks without freeing them.
type floatArena struct {
	chunks [][]float64
	ci     int // index of the chunk currently being filled
}

func (a *floatArena) alloc(r int) []float64 {
	for {
		if a.ci >= len(a.chunks) {
			a.chunks = append(a.chunks, make([]float64, 0, max(floatChunkSize, 4*r)))
		}
		c := a.chunks[a.ci]
		if len(c)+r <= cap(c) {
			a.chunks[a.ci] = c[:len(c)+r]
			return a.chunks[a.ci][len(c) : len(c)+r : len(c)+r]
		}
		a.ci++
	}
}

// unalloc returns the most recent alloc (LIFO) to the arena — used when a
// label is pruned before being kept. Must not be interleaved with other
// allocs.
func (a *floatArena) unalloc(r int) {
	c := a.chunks[a.ci]
	a.chunks[a.ci] = c[:len(c)-r]
}

func (a *floatArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.ci = 0
}

// labelArena slab-allocates labels in fixed chunks so pointers remain
// stable (prev chains) while amortizing allocation to one make per chunk.
type labelArena struct {
	chunks [][]label
	ci     int // index of the chunk currently being filled
}

const labelChunkSize = 1024

func (a *labelArena) alloc() *label {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]label, 0, labelChunkSize))
	}
	c := &a.chunks[a.ci]
	*c = append(*c, label{})
	if len(*c) == labelChunkSize {
		a.ci++
	}
	return &(*c)[len(*c)-1]
}

// workspace is everything one Pareto expansion allocates: the two float
// arenas the layers' cost vectors double-buffer between, the label slab,
// the frontier and next-layer label slices, and the Warburton dedup map.
// Solve and ParetoSize take one from workspaces and release it when they
// return, so back-to-back zone solves reuse the same memory instead of
// allocating at least 256 KiB of fresh arena chunks each.
type workspace struct {
	arenas         [2]floatArena
	labels         labelArena
	frontier, next []*label
	seen           map[uint64]int32
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// What a pooled workspace keeps between solves: 4 float chunks per arena
// (1 MiB for both at r ≤ 4096), 8 label chunks (384 KiB), and
// frontier/next slices of up to 16k labels, with the dedup map, whose
// entries never outnumber next. Bigger solves allocate the excess.
const (
	keepFloatChunks = 4
	keepLabelChunks = 8
	keepLabelPtrs   = 1 << 14
)

// release resets ws, trims it to the caps above and returns it to the
// pool. The caller must be done with every label the expansion returned.
// The labels and label pointers ws keeps are zeroed: a label holds a cost
// slice into a float chunk and a prev pointer into any label chunk, so a
// stale one would pin the chunks the trim drops.
func (ws *workspace) release() {
	for i := range ws.arenas {
		ws.arenas[i].reset()
		ws.arenas[i].chunks = keepFirst(ws.arenas[i].chunks, keepFloatChunks)
	}
	ws.labels.chunks = keepFirst(ws.labels.chunks, keepLabelChunks)
	for i, c := range ws.labels.chunks {
		clear(c)
		ws.labels.chunks[i] = c[:0]
	}
	ws.labels.ci = 0
	if max(cap(ws.frontier), cap(ws.next)) > keepLabelPtrs {
		ws.frontier, ws.next, ws.seen = nil, nil, nil
	} else {
		clear(ws.frontier[:cap(ws.frontier)])
		clear(ws.next[:cap(ws.next)])
	}
	workspaces.Put(ws)
}

// keepFirst drops all but the first n chunks, clearing the dropped slots
// so the backing array stops referencing them.
func keepFirst[T any](chunks [][]T, n int) [][]T {
	if len(chunks) > n {
		clear(chunks[n:])
		chunks = chunks[:n]
	}
	return chunks
}

// Solve finds the (1+ε)-approximate min–max path via Pareto dynamic
// programming with coordinate scaling and incumbent pruning. The context
// is checked at every layer and periodically inside the label-expansion
// loop, so even pathologically wide instances cancel promptly.
func Solve(ctx context.Context, g *Graph, opt Options) (Solution, error) {
	if err := g.Validate(); err != nil {
		return Solution{}, err
	}
	faultinject.At(faultinject.SiteMospSolve)
	if opt.Epsilon < 0 {
		return Solution{}, fmt.Errorf("mosp: negative epsilon %g", opt.Epsilon)
	}
	if opt.MaxLabels <= 0 {
		opt.MaxLabels = DefaultMaxLabels
	}
	sp := obs.FromContext(ctx)
	var st *solveStats
	if sp != nil {
		st = &solveStats{}
		sp.Count("mosp.layers", int64(len(g.Layers)))
	}
	// Incumbent from the greedy; its value bounds the optimum from above.
	greedy, err := SolveGreedy(g)
	if err != nil {
		return Solution{}, err
	}
	ws := workspaces.Get().(*workspace)
	// Deferred, so the workspace goes back on every path (panics
	// included) and only after the winning prev chain has been walked.
	defer ws.release()
	frontier, err := ws.expand(ctx, g, opt, greedy.Max, true, st)
	st.flush(sp)
	if err != nil {
		return Solution{}, err
	}
	if sp != nil {
		sp.Count("mosp.frontier", int64(len(frontier)))
	}
	if len(frontier) == 0 {
		// Numerical corner: everything pruned against UB. The greedy
		// solution is then optimal within tolerance.
		return greedy, nil
	}
	best := frontier[0]
	for _, lb := range frontier[1:] {
		if lb.max < best.max {
			best = lb
		}
	}
	if best.max >= greedy.Max {
		return greedy, nil
	}
	picks := make([]int, len(g.Layers))
	for lb := best; lb != nil && lb.layer >= 0; lb = lb.prev {
		picks[lb.layer] = int(lb.pick)
	}
	return g.solutionFor(picks), nil
}

// expand runs the Pareto label expansion over every layer and returns the
// dest frontier (nil/empty when everything was pruned against the
// incumbent upper bound ub). The frontier's labels live in ws. Shared by
// Solve and ParetoSize.
func (ws *workspace) expand(ctx context.Context, g *Graph, opt Options, ub float64, sites bool, st *solveStats) ([]*label, error) {
	r := g.Dim()
	// Warburton scaling: rounding each coordinate down to a multiple of δ
	// changes any path's coordinate by < |L|·δ = ε·UB ≤ ε·OPT-scale, so
	// dedup on rounded keys preserves a (1+ε)-optimal representative.
	delta := 0.0
	if opt.Epsilon > 0 && ub > 0 {
		delta = opt.Epsilon * ub / float64(len(g.Layers))
	}

	// Cost vectors double-buffer between two arenas: the current frontier
	// reads from one while the next layer writes into the other; the swap
	// recycles the now-dead frontier costs without any per-label GC work.
	// (Only the costs are recycled — label structs persist for the prev
	// chains, which no longer need their cost vectors.)
	cur := 0

	base := ws.arenas[cur].alloc(r)
	n := copy(base, g.Baseline)
	for i := n; i < r; i++ {
		base[i] = 0 // arena memory is recycled, not zeroed
	}
	start := ws.labels.alloc()
	*start = label{cost: base, max: maxOf(base), layer: -1, pick: -1}
	frontier, next := append(ws.frontier[:0], start), ws.next[:0]
	// Hand the (possibly regrown) slices back on every return, so release
	// sees their true capacity.
	defer func() { ws.frontier, ws.next = frontier, next }()
	if delta > 0 && ws.seen == nil {
		ws.seen = make(map[uint64]int32, 256)
	}
	seen := ws.seen

	for li, layer := range g.Layers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sites {
			faultinject.At(faultinject.SiteMospSolveLayer)
		}
		nextArena := &ws.arenas[1-cur]
		next = next[:0]
		if delta > 0 {
			clear(seen)
		}
		for fi, lb := range frontier {
			if fi%1024 == 1023 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for vi := range layer {
				v := &layer[vi]
				cost := nextArena.alloc(r)
				m := math.Inf(-1)
				pruned := false
				for s := 0; s < r; s++ {
					c := lb.cost[s] + v.Weight[s]
					// Incumbent prune, hoisted ahead of the remaining cost
					// writes: weights are non-negative, so the final max
					// can only grow; anything already above UB is dead
					// (ties kept to preserve the greedy path itself).
					if c > ub+1e-12 {
						pruned = true
						break
					}
					cost[s] = c
					if c > m {
						m = c
					}
				}
				if pruned {
					if st != nil {
						st.pruned++
					}
					nextArena.unalloc(r)
					continue
				}
				if st != nil {
					st.expanded++
				}
				nl := ws.labels.alloc()
				*nl = label{cost: cost, max: m, layer: int32(li), pick: int32(vi), prev: lb}
				if delta > 0 {
					h := hashQuantized(cost, delta)
					if idx, ok := seen[h]; ok {
						if sameQuantized(next[idx].cost, cost, delta) {
							if st != nil {
								st.dedupHits++
							}
							// Keep the better representative by replacing
							// the slot's pointer — never by overwriting the
							// stored label in place, which would alias two
							// logically distinct labels.
							if nl.max < next[idx].max {
								next[idx] = nl
							}
							continue
						}
						// True hash collision (equal hash, different
						// quantized coordinates): keep both labels; the
						// first occupant keeps the dedup slot. Costs only
						// the missed dedup, never correctness.
					} else {
						seen[h] = int32(len(next))
					}
				}
				next = append(next, nl)
			}
		}
		// Pareto dominance filter (exact costs) when affordable.
		if len(next) <= 2048 {
			next = paretoFilter(next, r)
		}
		// Safety valve.
		if len(next) > opt.MaxLabels {
			if st != nil {
				st.capped++
			}
			sort.Slice(next, func(i, j int) bool { return next[i].max < next[j].max })
			next = next[:opt.MaxLabels]
		}
		if len(next) == 0 {
			return nil, nil
		}
		frontier, next = next, frontier
		ws.arenas[cur].reset()
		cur = 1 - cur
	}
	return frontier, nil
}

// ParetoSize reports how many labels survive at the dest layer for the
// given ε — an observability hook for the complexity experiments.
func ParetoSize(g *Graph, opt Options) (int, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if opt.MaxLabels <= 0 {
		opt.MaxLabels = DefaultMaxLabels
	}
	greedy, _ := SolveGreedy(g)
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	// A background context never cancels, so expand cannot fail.
	frontier, _ := ws.expand(context.Background(), g, opt, greedy.Max, false, nil)
	return len(frontier), nil
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	if len(v) == 0 {
		return 0
	}
	return m
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashQuantized folds each coordinate, rounded down to a multiple of
// delta, into the hash as one 64-bit word: FNV-1a's xor-then-multiply
// step, taken a word at a time instead of a byte at a time — the
// allocation-free replacement for the old string round-key. Multiplying
// by the odd prime is a bijection on uint64, so vectors that differ in a
// single quantized coordinate always hash apart.
func hashQuantized(cost []float64, delta float64) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cost {
		h = (h ^ uint64(c/delta)) * fnvPrime64
	}
	return h
}

// sameQuantized reports whether two cost vectors round to the same
// Warburton key — the collision check behind hashQuantized.
func sameQuantized(a, b []float64, delta float64) bool {
	for s := range a {
		if uint64(a[s]/delta) != uint64(b[s]/delta) {
			return false
		}
	}
	return true
}

// paretoFilter removes labels dominated by another label (≤ on every
// coordinate, < on at least one implied by distinctness handling: we treat
// equal vectors as mutually dominating and keep one).
func paretoFilter(labels []*label, r int) []*label {
	// Sort by max ascending: a label can only be dominated by one with a
	// smaller-or-equal max.
	sort.Slice(labels, func(i, j int) bool { return labels[i].max < labels[j].max })
	out := labels[:0]
	// w is the coordinate that last refuted a dominance. Successive pairs
	// are often refuted at the same sample, so it is tested first and only
	// a pair it does not refute pays for the full scan. Either way the
	// predicate is the full scan's; only the order of the checks changes.
	w := 0
	for _, cand := range labels {
		dominated := false
		for _, kept := range out {
			if kept.cost[w] > cand.cost[w]+1e-15 {
				continue
			}
			s := witness(kept.cost, cand.cost, r)
			if s < 0 {
				dominated = true
				break
			}
			w = s
		}
		if !dominated {
			out = append(out, cand)
		}
	}
	return out
}

// witness returns the first coordinate at which a exceeds b (beyond the
// 1e-15 tolerance), or -1 when a dominates b.
func witness(a, b []float64, r int) int {
	for s := 0; s < r; s++ {
		if a[s] > b[s]+1e-15 {
			return s
		}
	}
	return -1
}
