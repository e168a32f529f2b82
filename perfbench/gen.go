package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"

	"wavemin"
	"wavemin/internal/bench"
	"wavemin/internal/cell"
	"wavemin/internal/cts"
	"wavemin/internal/variation"
)

// The request configuration is the paper's Table V point: κ = 20 ps,
// |S| = 158 time samples, ε = 0.01.
const configJSON = `{"kappa":20,"samples":158,"epsilon":0.01}`

const kappa = 20.0

// reqConfig is configJSON as the service decodes it (with the server's
// one-solver-worker cap), for computing cache keys and probing the solver.
var reqConfig = wavemin.Config{Kappa: kappa, Samples: 158, Epsilon: 0.01, Workers: 1}

// coldPattern fixes the circuit of every stream position (it repeats), so
// each seed draws new placements but the same size mix: a seed changes
// which trees are solved, never how many large ones a run holds. The
// three large circuits carry most of the solver time; s13207, whose solve
// time varies least with placement, is the median request.
var coldPattern = []string{"s13207", "s15850", "s38584", "s13207", "s13207", "s38417", "s13207", "s15850", "s35932"}

// hitPattern is the warm set's circuit cycle. With the Zipf popularity
// below, 21% of hits go to s15850-size trees, 50% to s13207-size ones and
// 3% to s35932-size ones, so the median and the p99 each fall inside one
// size class rather than on the edge between two.
var hitPattern = []string{"s13207", "s38584", "s15850", "s13207", "s38417", "s15850", "s13207", "s35932", "s15850"}

// yieldPattern is the yield workload's circuit: one size only, so the
// latency distribution has one mode and its median is stable.
var yieldPattern = []string{"s15850"}

// problem is one generated clock tree: a circuit's statistics (|L|, die,
// sink-cap range) with a placement drawn from the workload seed.
type problem struct {
	circuit string
	tree    []byte // compact wavemin-clocktree-v1 JSON
}

// mix derives an independent 63-bit seed for item i of a stream.
func mix(seed int64, stream string, i int) int64 {
	h := variation.InstanceSeed(seed, i)
	for _, c := range []byte(stream) {
		h = variation.InstanceSeed(h, int(c))
	}
	return h
}

// synthesize builds the tree of one circuit with a placement drawn from
// placementSeed. bench.Spec draws its placement from its name, so the name
// carries the seed.
func synthesize(circuit string, placementSeed int64) (problem, error) {
	spec, ok := bench.SpecByName(circuit)
	if !ok {
		return problem{}, fmt.Errorf("unknown circuit %q", circuit)
	}
	spec.Name = circuit + "@" + strconv.FormatInt(placementSeed, 16)
	opt := cts.DefaultOptions()
	opt.LeafCell = "BUF_X8"
	tree, err := spec.Synthesize(cell.DefaultLibrary(), opt)
	if err != nil {
		return problem{}, err
	}
	var pretty, compact bytes.Buffer
	if err := tree.WriteJSON(&pretty); err != nil {
		return problem{}, err
	}
	if err := json.Compact(&compact, pretty.Bytes()); err != nil {
		return problem{}, err
	}
	return problem{circuit: circuit, tree: compact.Bytes()}, nil
}

// genProblems generates n problems of a stream: position i uses circuit
// pattern[i % len(pattern)] and a placement seeded by (seed, stream, i),
// so a stream is a pure function of its seed and every prefix is stable.
func genProblems(seed int64, stream string, pattern []string, n int) ([]problem, error) {
	out := make([]problem, n)
	for i := range out {
		p, err := synthesize(pattern[i%len(pattern)], mix(seed, stream, i))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// stream is a workload's generated request stream: everything the
// service will receive, derived from the seed alone (mixed-workload
// deltas also carry the job ID of their base version, which the service
// assigns at run time).
type stream struct {
	probs  []problem // generated trees
	bodies [][]byte  // one request body per tree
	// hit: which warm problem and which node each request goes to.
	picks, nodes []int
	// mixed: each client's step plan over its designs.
	plans  [][]planStep
	digest string
}

// hitNodes is the size of the hit workload's sharded fleet.
const hitNodes = 3

// genStream generates the request stream of a workload for a seed, a run
// length and a client count.
func genStream(workload string, seed int64, seconds float64, clients int, traced bool) (*stream, error) {
	st := &stream{}
	d := newDigest()
	var err error
	switch workload {
	case "cold":
		st.probs, err = genProblems(seed, "cold", coldPattern, streamLen(seconds, coldRateCap))
	case "hit":
		st.probs, err = genProblems(seed, "cold", hitPattern, warmSize)
	case "mixed":
		st.probs, err = genProblems(seed, "mixed", mixedPattern, clients*len(mixedPattern))
	case "yield":
		st.probs, err = genProblems(seed, "yield", yieldPattern, streamLen(seconds, yieldRateCap))
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	for i, p := range st.probs {
		extra := traceField(traced)
		switch workload {
		case "hit":
			extra = "" // hits never run the solver, so there is nothing to trace
		case "yield":
			yseed := 1 + mix(seed, "yield-seed", i)&0x7fffffff
			extra = fmt.Sprintf(`,"yield":{"samples":%d,"seed":%d}`, yieldBudget, yseed) + extra
		}
		st.bodies = append(st.bodies, optimizeBody(p.tree, extra))
		d.add(st.bodies[i])
	}
	switch workload {
	case "hit":
		n := streamLen(seconds, hitRateCap)
		rng := rand.New(rand.NewSource(mix(seed, "hit", 0)))
		st.picks = zipfPicks(rng, warmSize, n, hitZipf)
		st.nodes = make([]int, n)
		for i := range st.nodes {
			st.nodes[i] = rng.Intn(hitNodes)
			d.add([]byte(strconv.Itoa(st.picks[i]) + "@" + strconv.Itoa(st.nodes[i])))
		}
	case "mixed":
		n := streamLen(seconds, mixedRateCap)
		for c := 0; c < clients; c++ {
			plan := drawPlan(rand.New(rand.NewSource(mix(seed, "mixed-plan", c))), n, len(mixedPattern))
			for _, s := range plan {
				d.add([]byte(fmt.Sprintf("%v/%d/%g/%g/%g", s.delta, s.design, s.edit.leaf, s.edit.frac, s.pick)))
			}
			st.plans = append(st.plans, plan)
		}
	}
	st.digest = d.hex()
	return st, nil
}

// optimizeBody is the POST /v1/optimize body for a tree; extra is spliced
// in as further top-level fields (it starts with a comma when non-empty).
func optimizeBody(tree []byte, extra string) []byte {
	b := make([]byte, 0, len(tree)+len(configJSON)+len(extra)+32)
	b = append(b, `{"tree":`...)
	b = append(b, tree...)
	b = append(b, `,"config":`...)
	b = append(b, configJSON...)
	b = append(b, extra...)
	b = append(b, '}')
	return b
}

// zipfPicks draws n indexes in [0, k) with Zipf(s) popularity: index r
// has rank r+1. Ranks are not shuffled, so with a fixed circuit pattern
// the popularity of each circuit size is the same for every seed.
func zipfPicks(rng *rand.Rand, k, n int, s float64) []int {
	cdf := make([]float64, k)
	var total float64
	for r := 0; r < k; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	out := make([]int, n)
	for i := range out {
		u := rng.Float64() * total
		r := 0
		for r < k-1 && cdf[r] < u {
			r++
		}
		out[i] = r
	}
	return out
}

// wireTree mirrors the wavemin-clocktree-v1 format closely enough to edit
// a leaf's sink load and write the tree back.
type wireTree struct {
	Format string     `json:"format"`
	Nodes  []wireNode `json:"nodes"`
}

type wireNode struct {
	ID          int            `json:"id"`
	Parent      int            `json:"parent"`
	Cell        string         `json:"cell"`
	X           float64        `json:"x"`
	Y           float64        `json:"y"`
	WireRes     float64        `json:"wire_res,omitempty"`
	WireCap     float64        `json:"wire_cap,omitempty"`
	SinkCap     float64        `json:"sink_cap,omitempty"`
	Domain      string         `json:"domain,omitempty"`
	AdjustSteps map[string]int `json:"adjust_steps,omitempty"`
}

// edit is one planned one-leaf ECO edit: which leaf (as a fraction of
// the leaf list, so a plan applies to any tree) and by how much its sink
// load moves.
type edit struct {
	leaf float64 // in [0, 1)
	frac float64 // relative change, ±5–15%
}

func drawEdit(rng *rand.Rand) edit {
	f := 0.05 + 0.10*rng.Float64()
	if rng.Intn(2) == 0 {
		f = -f
	}
	return edit{leaf: rng.Float64(), frac: f}
}

// apply moves one leaf's sink load by e.frac, reflected when it would
// leave the circuits' 4–12 fF range.
func (e edit) apply(t *wireTree) error {
	var leaves []int
	for i, n := range t.Nodes {
		if n.SinkCap > 0 {
			leaves = append(leaves, i)
		}
	}
	if len(leaves) == 0 {
		return fmt.Errorf("tree has no leaves")
	}
	n := &t.Nodes[leaves[int(e.leaf*float64(len(leaves)))]]
	next := n.SinkCap * (1 + e.frac)
	if next < 4 || next > 12 {
		next = n.SinkCap * (1 - e.frac)
	}
	n.SinkCap = next
	return nil
}

// digestWriter is a short content hash used to pin request and result
// streams.
type digestWriter struct{ h hash.Hash }

func newDigest() *digestWriter { return &digestWriter{h: sha256.New()} }

// add folds one length-prefixed record into the digest.
func (d *digestWriter) add(b []byte) {
	d.h.Write([]byte(strconv.Itoa(len(b)) + ":"))
	d.h.Write(b)
}

func (d *digestWriter) hex() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
