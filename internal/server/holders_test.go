package server

// The holder walk: a key's cached result is read from its owner first,
// then from the bucket's readers in map order. A submission whose owner
// is down and a cache read-through both take that one walk (readHolders),
// and these tests pin what each answers in every arrangement of owner,
// readers and copies, and that a dead owner's replica reads stay inside
// the forward bound.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"wavemin/internal/shard"
)

// Node roles in the holder-walk fleet: submissions and read-throughs
// enter at node 0, node 1 owns the key, node 2 is the other peer.
const (
	walkEntry = 0
	walkOwner = 1
	walkPeer  = 2
)

// holderCounters are the per-node counters the walk moves.
type holderCounters struct {
	replicaHits, peerServeHits, peerServeMisses [3]int64
}

func (fl *fleet) holderCounters() holderCounters {
	var c holderCounters
	for i, n := range fl.nodes {
		m := n.srv.Load().MetricsSnapshot().Shard
		c.replicaHits[i], c.peerServeHits[i], c.peerServeMisses[i] = m.ReplicaHits, m.PeerServeHits, m.PeerServeMisses
	}
	return c
}

func (c holderCounters) minus(b holderCounters) holderCounters {
	for i := range c.replicaHits {
		c.replicaHits[i] -= b.replicaHits[i]
		c.peerServeHits[i] -= b.peerServeHits[i]
		c.peerServeMisses[i] -= b.peerServeMisses[i]
	}
	return c
}

// walkCase is one arrangement: whether the owner is up, the key's
// readers in map order, and the nodes holding a copy.
type walkCase struct {
	ownerUp bool
	readers []int
	copies  []int
}

// walkOutcome is what one read answered: the status (a read-through's
// hit is 200, its miss 404), the node whose copy answered (-1: none),
// the node that minted the submission's job (-1: none), and the counter
// deltas.
type walkOutcome struct {
	status   int
	copyFrom int
	jobOn    int
	counters holderCounters
}

// ask is the contract's answer when a node asks peer t for the key: a
// hit when t holds a copy, counted at t as served or missed.
func (c walkCase) ask(out *walkOutcome, t int) bool {
	if slices.Contains(c.copies, t) {
		out.counters.peerServeHits[t]++
		out.copyFrom = t
		return true
	}
	out.counters.peerServeMisses[t]++
	return false
}

// wantReadThrough models a cache read-through at the entry node: its own
// tiers first, then the owner, whose answer is final, then — when the
// owner cannot be asked — the readers other than itself, in map order.
func (c walkCase) wantReadThrough() walkOutcome {
	out := walkOutcome{status: http.StatusNotFound, copyFrom: -1, jobOn: -1}
	if slices.Contains(c.copies, walkEntry) {
		out.status, out.copyFrom = http.StatusOK, walkEntry
		return out
	}
	if c.ownerUp {
		if c.ask(&out, walkOwner) {
			out.status = http.StatusOK
		}
		return out
	}
	for _, r := range c.readers {
		if r != walkEntry && c.ask(&out, r) {
			out.status = http.StatusOK
			out.counters.replicaHits[walkEntry]++
			return out
		}
	}
	return out
}

// wantSubmission models a submission at the entry node. With the owner
// up, it is forwarded and the owner answers from its own copy or its
// readers' (a read-through on the owner), else solves. With the owner
// down, the entry node walks the readers itself, its own copy in map
// order among them, and answers a hit as its own cache-hit job.
func (c walkCase) wantSubmission() walkOutcome {
	out := walkOutcome{copyFrom: -1, jobOn: walkOwner}
	if c.ownerUp {
		out.status = http.StatusAccepted
		if slices.Contains(c.copies, walkOwner) {
			out.status, out.copyFrom = http.StatusOK, walkOwner
			return out
		}
		for _, r := range c.readers {
			if c.ask(&out, r) {
				out.status = http.StatusOK
				out.counters.replicaHits[walkOwner]++
				return out
			}
		}
		return out
	}
	out.status, out.jobOn = http.StatusServiceUnavailable, -1
	for _, r := range c.readers {
		hit := slices.Contains(c.copies, r)
		if r != walkEntry {
			hit = c.ask(&out, r)
		}
		if hit {
			out.status, out.jobOn, out.copyFrom = http.StatusOK, walkEntry, r
			out.counters.replicaHits[walkEntry]++
			return out
		}
	}
	return out
}

// walkFleet boots a 3-node fleet whose map gives body's key to walkOwner
// with the case's readers, places a distinct copy of the result on every
// copy node, so the answer names its source, and kills the owner when
// the case says so.
func walkFleet(t *testing.T, body []byte, c walkCase) (*fleet, string) {
	t.Helper()
	req, apiErr := decodeOptimizeRequest(body, Options{}.withDefaults())
	if apiErr != nil {
		t.Fatal(apiErr.Message)
	}
	m, err := shard.New(1, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.BucketOf(req.key)
	if err != nil {
		t.Fatal(err)
	}
	m.Assign[b] = walkOwner
	m.Replicas = make([][]int, len(m.Assign))
	m.Replicas[b] = c.readers
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	fl := newFleetWithMap(t, m, Options{}, nil)
	for _, n := range c.copies {
		fl.nodes[n].srv.Load().cache.PutLocal(req.key, copyBlob(n))
	}
	if !c.ownerUp {
		fl.kill(walkOwner)
	}
	return fl, req.key
}

// copyBlob is node n's copy of the cached result.
func copyBlob(n int) []byte {
	return []byte(fmt.Sprintf(`{"AlgorithmUsed":"ClkWaveMin","Copy":%d}`, n))
}

// TestShardFleetHolderWalk pins the one holder walk against a model of
// the routing contract, in every arrangement: owner up or down; readers
// none, the entry node, the other peer, or both in either order; copies
// on any subset of the three nodes. A read-through and a submission each
// must answer the modelled status, from the modelled copy, on the
// modelled node, moving ReplicaHits, PeerServeHits and PeerServeMisses
// exactly as modelled.
func TestShardFleetHolderWalk(t *testing.T) {
	body := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()})
	readerSets := [][]int{nil, {walkEntry}, {walkPeer}, {walkEntry, walkPeer}, {walkPeer, walkEntry}}
	for _, ownerUp := range []bool{true, false} {
		for _, readers := range readerSets {
			for mask := 0; mask < 8; mask++ {
				c := walkCase{ownerUp: ownerUp, readers: readers}
				for n := 0; n < 3; n++ {
					if mask&(1<<n) != 0 {
						c.copies = append(c.copies, n)
					}
				}
				t.Run(fmt.Sprintf("up=%v/readers=%v/copies=%v", ownerUp, readers, c.copies), func(t *testing.T) {
					checkHolderWalk(t, body, c)
				})
			}
		}
	}
}

func checkHolderWalk(t *testing.T, body []byte, c walkCase) {
	fl, key := walkFleet(t, body, c)
	entry := fl.nodes[walkEntry].srv.Load()

	// The read-through, as rescache.Tiered.Get takes it, minus the
	// promotion of a peer hit, so the submission below finds the same
	// copies in place.
	before := fl.holderCounters()
	got := walkOutcome{status: http.StatusNotFound, copyFrom: -1, jobOn: -1}
	blob, ok := entry.cache.GetLocal(key)
	if !ok {
		blob, ok, _ = (&peerCacheTier{sh: entry.sh, path: "/v1/shard/cache/"}).PeerGet(key)
	}
	if ok {
		got.status = http.StatusOK
		got.copyFrom = copySource(t, blob)
	}
	got.counters = fl.holderCounters().minus(before)
	if want := c.wantReadThrough(); got != want {
		t.Fatalf("read-through: got %+v, want %+v", got, want)
	}

	before = fl.holderCounters()
	resp, err := http.Post(fl.peers[walkEntry]+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got = walkOutcome{status: resp.StatusCode, copyFrom: -1, jobOn: -1}
	got.counters = fl.holderCounters().minus(before)
	want := c.wantSubmission()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		got.jobOn = want.jobOn
		status, hit := StatusDone, true
		if resp.StatusCode == http.StatusAccepted {
			status, hit = StatusQueued, false
		}
		id := shard.EncodeJobID(want.jobOn, 1)
		if wantRaw := fmt.Sprintf(`{"cacheHit":%v,"jobId":%q,"status":%q}`+"\n", hit, id, status); string(raw) != wantRaw {
			t.Fatalf("submission answered %s, want %s", raw, wantRaw)
		}
		if hit {
			if isHit, result := fl.resultBody(walkEntry, id); isHit {
				got.copyFrom = copySource(t, result)
			}
		}
	case http.StatusServiceUnavailable:
		prefix := `{"error":{"code":"shard_unavailable","message":"shard 1 owner unreachable: `
		if !strings.HasPrefix(string(raw), prefix) {
			t.Fatalf("submission answered %s, want the 503 shard_unavailable", raw)
		}
	}
	if got != want {
		t.Fatalf("submission: got %+v (%s), want %+v", got, raw, want)
	}
}

// copySource names the node whose copy blob is.
func copySource(t *testing.T, blob []byte) int {
	t.Helper()
	for n := 0; n < 3; n++ {
		if bytes.Equal(blob, copyBlob(n)) {
			return n
		}
	}
	t.Fatalf("answer %s is no node's copy", blob)
	return -1
}

// TestShardFleetDeadOwnerReadsHoldForwardSlot pins the forward bound
// over a dead owner's replica reads: with every forward slot but one
// held and the replica's lookup blocked, the first dead-owner submission
// holds the last slot through its replica read, so a second one is
// refused 503 forward_backpressure instead of opening a second peer read.
func TestShardFleetDeadOwnerReadsHoldForwardSlot(t *testing.T) {
	body := marshalReq(t, map[string]any{"tree": smallTreeJSON(t, 8), "config": fastConfig()})
	fl, _ := walkFleet(t, body, walkCase{readers: []int{walkPeer}, copies: []int{walkPeer}})

	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	defer close(release)
	peer := fl.nodes[walkPeer].srv.Load()
	inner := peer.handler
	peer.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/shard/cache/") {
			arrived <- struct{}{}
			<-release
		}
		inner.ServeHTTP(w, r)
	})

	sh := fl.nodes[walkEntry].srv.Load().sh
	for i := 0; i < cap(sh.slots)-1; i++ {
		sh.slots <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(sh.slots)-1; i++ {
			<-sh.slots
		}
	}()

	type answer struct {
		resp *http.Response
		raw  []byte
	}
	submit := func() <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			resp, err := http.Post(fl.peers[walkEntry]+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				ch <- answer{}
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			ch <- answer{resp, raw}
		}()
		return ch
	}
	first := submit()
	<-arrived // the first submission's replica read is in flight
	select {
	case a := <-submit():
		if a.resp == nil {
			t.Fatal("second submission: transport error")
		}
		checkRefusal(t, "second dead-owner submission", a.resp, a.raw, refusal{status: http.StatusServiceUnavailable,
			retryAfter: "1", code: "forward_backpressure",
			message: "too many forwards to peers in flight (bound 128); retry shortly"})
	case <-arrived:
		t.Fatal("a second dead-owner submission opened a peer read past the forward bound")
	}
	release <- struct{}{}
	a := <-first
	if a.resp == nil || a.resp.StatusCode != http.StatusOK {
		t.Fatalf("first dead-owner submission: %v %s, want 200 from the replica", a.resp, a.raw)
	}
}
