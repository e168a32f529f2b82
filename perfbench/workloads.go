package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"wavemin"
	"wavemin/internal/dispatch"
	"wavemin/internal/server"
)

// runCfg is what every workload's set-up receives.
type runCfg struct {
	seed    int64
	seconds float64
	traced  bool
	clients []*client
	tmpDir  string // parent of any data directory, inside the checkout
}

// fixture is a workload ready to measure: its servers, its generated
// request stream, and the closures that run and judge its operations.
type fixture struct {
	fl *fleet
	// reqDigest pins the generated request stream (bodies and plan).
	reqDigest string
	// next runs client c's next operation and checks its output. An error
	// means the pre-generated stream ran out, which fails the run.
	next func(ctx context.Context, c *client) (*op, error)
	// setupOps are operations set-up ran (warm and base solves); their
	// results count towards the quality metric and the result digest.
	setupOps []*op
	// prefix reports whether a measured operation is one of the first
	// stream positions every run completes, and its order among them: the
	// quality metric and the result digest use setupOps plus these, so
	// they repeat exactly for a seed whatever the run's throughput.
	prefix func(o *op) (int, bool)
	// isolation checks the run's mechanism-isolation counters.
	isolation func(ops []*op, before, after []server.Metrics) ([]string, error)
	// probeTrees are a sample of the run's trees for the probe pass.
	probeTrees [][]byte
	closeOnce  sync.Once
	closeErr   error
}

func (fx *fixture) close() error {
	fx.closeOnce.Do(func() { fx.closeErr = fx.fl.close() })
	return fx.closeErr
}

var errExhausted = errors.New("request stream exhausted: the generated stream is sized for a faster service than expected; raise the workload's rate cap")

type workload struct {
	name  string
	setup func(rc runCfg) (*fixture, error)
}

var workloads = []workload{
	{"cold", setupCold},
	{"hit", setupHit},
	{"mixed", setupMixed},
	{"yield", setupYield},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamLen sizes a pre-generated stream: rateCap operations per second
// of run, a headroom of several times the rate this service reaches today.
func streamLen(seconds, rateCap float64) int { return int(seconds*rateCap) + 64 }

func traceField(traced bool) string {
	if traced {
		return `,"trace":true`
	}
	return ""
}

// Rate caps (operations per second) the pre-generated streams allow.
const (
	coldRateCap  = 30
	hitRateCap   = 3000
	mixedRateCap = 600 // per client
	yieldRateCap = 12
)

// coldPrefix is how many leading cold stream positions feed the quality
// metric and result digest.
const coldPrefix = 18

// --- cold -----------------------------------------------------------------

func setupCold(rc runCfg) (*fixture, error) {
	st, err := genStream("cold", rc.seed, rc.seconds, len(rc.clients), rc.traced)
	if err != nil {
		return nil, err
	}
	bodies, n := st.bodies, len(st.bodies)
	fl, err := startSingle(server.Options{MaxSolverWorkers: 1})
	if err != nil {
		return nil, err
	}
	var pos atomic.Int64
	fx := &fixture{fl: fl, reqDigest: st.digest, probeTrees: treesOf(st.probs[:3])}
	fx.next = func(ctx context.Context, c *client) (*op, error) {
		i := int(pos.Add(1) - 1)
		if i >= n {
			return nil, errExhausted
		}
		c.doing("client %d: cold solve, stream #%d", c.id, i)
		o := c.solve(ctx, fl.urls[0], i, bodies[i])
		if o.err == nil {
			o.reduction, o.err = checkOptResult(o.result, "ClkWaveMin")
		}
		return o, nil
	}
	fx.prefix = func(o *op) (int, bool) { return o.index, o.index < coldPrefix }
	fx.isolation = func(ops []*op, before, after []server.Metrics) ([]string, error) {
		hits := after[0].CacheHits - before[0].CacheHits
		subs := after[0].Submitted - before[0].Submitted
		line := fmt.Sprintf("isolation cold: cache hits %d of %d submissions (want 0)", hits, subs)
		if hits != 0 {
			return []string{line}, errors.New("cold: the cache answered a request")
		}
		return []string{line}, nil
	}
	return fx, nil
}

func treesOf(ps []problem) [][]byte {
	out := make([][]byte, len(ps))
	for i, p := range ps {
		out[i] = p.tree
	}
	return out
}

// solveAll runs set-up solves, spread over the clients, and checks each.
// bases picks the server each body goes to.
func solveAll(ctx context.Context, clients []*client, bases []string, bodies [][]byte) ([]*op, error) {
	ops := make([]*op, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				c.doing("client %d: set-up solve #%d", c.id, i)
				o := c.solve(ctx, bases[i], i, bodies[i])
				if o.err == nil {
					o.reduction, o.err = checkOptResult(o.result, "ClkWaveMin")
				}
				ops[i] = o
			}
		}(c)
	}
	wg.Wait()
	for i, o := range ops {
		if o.err != nil {
			return nil, fmt.Errorf("set-up solve #%d: %w", i, o.err)
		}
	}
	return ops, nil
}

// --- hit ------------------------------------------------------------------

// warmSize is the size of the hit workload's warm set, drawn by the cold
// generator over hitPattern. Results are a few hundred bytes, so the set
// fits the memory result tier many times over; the request trees are what
// a hit costs.
const warmSize = 16

// hitZipf is the popularity skew over the warm set.
const hitZipf = 1.1

func cacheKey(tree []byte) (string, error) {
	d, err := wavemin.LoadTree(bytes.NewReader(tree))
	if err != nil {
		return "", err
	}
	return d.CacheKey(reqConfig)
}

func setupHit(rc runCfg) (*fixture, error) {
	st, err := genStream("hit", rc.seed, rc.seconds, len(rc.clients), rc.traced)
	if err != nil {
		return nil, err
	}
	bodies, picks, nodes, n := st.bodies, st.picks, st.nodes, len(st.picks)
	fl, m, err := startSharded(hitNodes, server.Options{MaxSolverWorkers: 1})
	if err != nil {
		return nil, err
	}
	fx := &fixture{fl: fl, reqDigest: st.digest, probeTrees: treesOf(st.probs[:3])}
	owners := make([]int, warmSize)
	bases := make([]string, warmSize)
	for i, p := range st.probs {
		key, err := cacheKey(p.tree)
		if err != nil {
			fl.close()
			return nil, err
		}
		if owners[i], err = m.ShardOf(key); err != nil {
			fl.close()
			return nil, err
		}
		bases[i] = fl.urls[owners[i]]
	}
	warm, err := solveAll(context.Background(), rc.clients, bases, bodies)
	if err != nil {
		fl.close()
		return nil, err
	}
	fx.setupOps = warm

	var pos atomic.Int64
	fx.next = func(ctx context.Context, c *client) (*op, error) {
		i := int(pos.Add(1) - 1)
		if i >= n {
			return nil, errExhausted
		}
		w, node := picks[i], nodes[i]
		c.doing("client %d: hit on node %d, stream #%d", c.id, node, i)
		o := c.hit(ctx, fl.urls[node], i, bodies[w])
		o.forwarded = node != owners[w]
		if o.err == nil && !bytes.Equal(o.result, warm[w].result) {
			o.err = fmt.Errorf("hit %s: result bytes differ from the first answer for warm problem %d", o.jobID, w)
		}
		return o, nil
	}
	fx.prefix = func(*op) (int, bool) { return 0, false }
	fx.isolation = func(ops []*op, before, after []server.Metrics) ([]string, error) {
		var solves, runs int64
		fwd := 0
		for _, o := range ops {
			if o.solveRan {
				solves++
			}
			if o.forwarded {
				fwd++
			}
		}
		for i := range after {
			runs += after[i].SolverRuns - before[i].SolverRuns
		}
		share := float64(fwd) / float64(max(len(ops), 1))
		lines := []string{
			fmt.Sprintf("isolation hit: solver jobs %d of %d operations (from job views; want 0); server solver runs %d", solves, len(ops), runs),
			fmt.Sprintf("isolation hit: forwarded %d of %d operations = %.3f (want about 2/3)", fwd, len(ops), share),
		}
		switch {
		case solves != 0 || runs != 0:
			return lines, errors.New("hit: a solver ran in the measured phase")
		case share < 0.55 || share > 0.78:
			return lines, fmt.Errorf("hit: forwarded share %.3f is not near 2/3", share)
		}
		return lines, nil
	}
	return fx, nil
}

// --- mixed ----------------------------------------------------------------

// mixedPattern is each client's set of base designs. They are small, so
// an ECO delta is cheap enough that its journal, store and zone writes
// are a large share of it, and a run holds thousands of operations.
var mixedPattern = []string{"s15850", "s13207", "s15850", "s13207"}

const (
	mixedMemEntries = 8  // memory result tier, far below the working set
	mixedWindow     = 64 // versions per design a repeat draws from
	mixedDeltaShare = 1.0 / 3
	mixedPrefix     = 8 // leading deltas per client in the quality metric
)

// planStep is one pre-drawn step of a mixed-workload client: an ECO
// delta on one of its designs, or a resubmission of an earlier version.
type planStep struct {
	delta  bool
	design int     // index among the client's designs
	edit   edit    // for deltas
	pick   float64 // for repeats: which version in the window, in [0, 1)
}

func drawPlan(rng *rand.Rand, n, designs int) []planStep {
	plan := make([]planStep, n)
	for i := range plan {
		s := planStep{delta: rng.Float64() < mixedDeltaShare, design: rng.Intn(designs)}
		if s.delta {
			s.edit = drawEdit(rng)
		} else {
			s.pick = rng.Float64()
		}
		plan[i] = s
	}
	return plan
}

type version struct {
	body   []byte // plain resubmission body
	result []byte // first answer
}

// design is one mixed-workload design's chain of versions.
type design struct {
	tree     wireTree  // latest version, parsed for editing
	jobID    string    // job that produced the latest version
	versions []version // the last mixedWindow versions, oldest first
}

func setupMixed(rc runCfg) (*fixture, error) {
	nc := len(rc.clients)
	per := len(mixedPattern)
	st, err := genStream("mixed", rc.seed, rc.seconds, nc, rc.traced)
	if err != nil {
		return nil, err
	}
	probs, plans := st.probs, st.plans
	dir, err := os.MkdirTemp(rc.tmpDir, "mixed-")
	if err != nil {
		return nil, err
	}
	fl, err := startSingle(server.Options{
		MaxSolverWorkers: 1,
		DataDir:          dir,
		Eco:              true,
		Workers:          1,
		Dispatch:         &dispatch.Options{LocalExec: true},
		CacheMaxEntries:  mixedMemEntries,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := fl.addWorker("bench-worker-1"); err != nil {
		fl.close()
		return nil, err
	}
	fx := &fixture{fl: fl, reqDigest: st.digest, probeTrees: treesOf(probs)}
	bases := make([]string, len(probs))
	for i := range bases {
		bases[i] = fl.urls[0]
	}
	baseOps, err := solveAll(context.Background(), rc.clients, bases, st.bodies)
	if err != nil {
		fl.close()
		return nil, err
	}
	fx.setupOps = baseOps

	designs := make([][]*design, nc)
	steps := make([]int, nc)
	n := len(plans[0])
	for c := 0; c < nc; c++ {
		for k := 0; k < per; k++ {
			i := c*per + k
			ds := &design{jobID: baseOps[i].jobID}
			if err := json.Unmarshal(probs[i].tree, &ds.tree); err != nil {
				fl.close()
				return nil, err
			}
			ds.versions = []version{{body: optimizeBody(probs[i].tree, ""), result: baseOps[i].result}}
			designs[c] = append(designs[c], ds)
		}
	}

	url := fl.urls[0]
	fx.next = func(ctx context.Context, c *client) (*op, error) {
		k := steps[c.id]
		if k >= n {
			return nil, errExhausted
		}
		steps[c.id]++
		s := plans[c.id][k]
		ds := designs[c.id][s.design]
		if !s.delta {
			v := ds.versions[int(s.pick*float64(len(ds.versions)))]
			c.doing("client %d: resubmit a version of design %d, step %d", c.id, s.design, k)
			o := c.hit(ctx, url, k, v.body)
			if o.err == nil && !bytes.Equal(o.result, v.result) {
				o.err = fmt.Errorf("repeat %s: result bytes differ from the first answer", o.jobID)
			}
			return o, nil
		}
		if err := s.edit.apply(&ds.tree); err != nil {
			return nil, err
		}
		tree, err := json.Marshal(&ds.tree)
		if err != nil {
			return nil, err
		}
		c.doing("client %d: ECO delta on design %d from %s, step %d", c.id, s.design, ds.jobID, k)
		o := c.solve(ctx, url, k, optimizeBody(tree, `,"baseJobId":"`+ds.jobID+`"`+traceField(rc.traced)))
		o.delta = true
		if o.err == nil {
			o.reduction, o.err = checkOptResult(o.result, "ClkWaveMin")
		}
		if o.err == nil {
			ds.jobID = o.jobID
			ds.versions = append(ds.versions, version{body: optimizeBody(tree, ""), result: o.result})
			if len(ds.versions) > mixedWindow {
				ds.versions = ds.versions[1:]
			}
		}
		return o, nil
	}
	// Per client, count deltas in plan order: the first mixedPrefix of
	// each client are always reached.
	deltaRank := make([]map[int]int, nc)
	for c := range plans {
		deltaRank[c] = map[int]int{}
		r := 0
		for k, s := range plans[c] {
			if s.delta {
				deltaRank[c][k] = r
				r++
				if r == mixedPrefix {
					break
				}
			}
		}
	}
	fx.prefix = func(o *op) (int, bool) {
		r, ok := deltaRank[o.client][o.index]
		return o.client*mixedPrefix + r, ok && o.delta
	}
	fx.isolation = func(ops []*op, before, after []server.Metrics) ([]string, error) {
		b, a := before[0], after[0]
		disk := a.TieredCache.DiskHits - b.TieredCache.DiskHits
		reused := a.EcoZonesReused - b.EcoZonesReused
		resolved := a.EcoZonesResolved - b.EcoZonesResolved
		repeats := 0
		for _, o := range ops {
			if o.hit {
				repeats++
			}
		}
		lines := []string{
			fmt.Sprintf("isolation mixed: disk-tier hits %d of %d repeats (want > 0)", disk, repeats),
			fmt.Sprintf("isolation mixed: zones reused %d of %d zone instances (want > 0)", reused, reused+resolved),
		}
		if disk == 0 || reused == 0 {
			return lines, errors.New("mixed: no disk-tier hits or no zone reuse")
		}
		return lines, nil
	}
	return fx, nil
}

// --- yield ----------------------------------------------------------------

// yieldBudget is the per-candidate Monte Carlo budget of a yield request.
const yieldBudget = 448

const yieldPrefix = 16

func setupYield(rc runCfg) (*fixture, error) {
	st, err := genStream("yield", rc.seed, rc.seconds, len(rc.clients), rc.traced)
	if err != nil {
		return nil, err
	}
	bodies, n := st.bodies, len(st.bodies)
	fl, err := startSingle(server.Options{
		MaxSolverWorkers: 1,
		Dispatch:         &dispatch.Options{LocalExec: true},
	})
	if err != nil {
		return nil, err
	}
	if err := fl.addWorker("bench-worker-1"); err != nil {
		fl.close()
		return nil, err
	}
	var pos atomic.Int64
	fx := &fixture{fl: fl, reqDigest: st.digest, probeTrees: treesOf(st.probs[:3])}
	fx.next = func(ctx context.Context, c *client) (*op, error) {
		i := int(pos.Add(1) - 1)
		if i >= n {
			return nil, errExhausted
		}
		c.doing("client %d: yield job, stream #%d", c.id, i)
		o := c.solve(ctx, fl.urls[0], i, bodies[i])
		if o.err == nil {
			o.yield, o.reduction, o.err = checkYieldReport(o.result)
		}
		return o, nil
	}
	fx.prefix = func(o *op) (int, bool) { return o.index, o.index < yieldPrefix }
	fx.isolation = func(ops []*op, before, after []server.Metrics) ([]string, error) {
		stops := 0
		jobs := 0
		for _, o := range ops {
			if o.yield != nil {
				jobs++
				if o.yield.EarlyStopped {
					stops++
				}
			}
		}
		line := fmt.Sprintf("isolation yield: early stops %d of %d yield jobs (want >= 1)", stops, jobs)
		if stops == 0 {
			return []string{line}, errors.New("yield: no run stopped early")
		}
		return []string{line}, nil
	}
	return fx, nil
}
