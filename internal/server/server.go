// Package server is the wavemind batch optimization service: an HTTP
// JSON API over the wavemin facade, backed by a bounded prioritized
// lease queue (internal/jobq) and a content-addressed LRU result cache
// (internal/rescache). Every job is a serializable dispatch.JobSpec on
// that queue, executed by dispatch.ExecuteSpec on this process's worker
// pool or on a remote `wavemind -role=worker`.
//
// Endpoints:
//
//	POST /v1/optimize          submit a tree + config; 202 + job ID, or
//	                           200 immediately on a result-cache hit,
//	                           429 + Retry-After when the queue is full,
//	                           503 while draining
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/result  the optimization Result (JSON)
//	GET  /v1/jobs/{id}/trace   the job's telemetry trace (JSONL), when
//	                           the request asked for one
//	GET  /healthz              liveness (503 while draining)
//	GET  /debug/vars, /debug/pprof/...   expvar + pprof (Options.Debug)
//
// Results are cached under the canonical content hash of (tree, config,
// modes) — wavemin.Design.CacheKey — so resubmitting an identical
// problem is answered instantly, byte-for-byte identically, without
// re-running the solver. Degraded (deadline-shaped) results are never
// cached. Drain stops intake and finishes every accepted job — the
// SIGTERM path of cmd/wavemind.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	_ "expvar" // /debug/vars when Options.Debug mounts the default mux
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // /debug/pprof when Options.Debug mounts the default mux
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wavemin"
	"wavemin/internal/castore"
	"wavemin/internal/dispatch"
	"wavemin/internal/jobq"
	"wavemin/internal/obs"
	"wavemin/internal/rescache"
	"wavemin/internal/shard"
	"wavemin/internal/wal"
)

// Options configures a Server. Zero values take the defaults noted.
type Options struct {
	QueueCapacity    int           // backlog bound (default 64)
	Workers          int           // jobs executed concurrently (default 2)
	CacheMaxBytes    int64         // result cache byte bound (default 64 MiB)
	CacheMaxEntries  int           // result cache entry bound (default 4096)
	DefaultTimeout   time.Duration // per-job deadline when the request names none (default 30s)
	MaxTimeout       time.Duration // per-job deadline ceiling (default 2m)
	MaxSolverWorkers int           // cap on per-job solver parallelism (0 = uncapped)
	Debug            bool          // mount /debug/vars and /debug/pprof
	// Dispatch, when non-nil, runs the server as a dispatch coordinator:
	// it mounts the /v1/dispatch/* pull protocol that `wavemind
	// -role=worker` processes lease jobs over, and sets the lease knobs —
	// TTL, retry budget, and whether the local pool still executes
	// whatever no worker claims (Dispatch.LocalExec). Nil — the default —
	// leaves the protocol unmounted and every job runs on the local pool.
	Dispatch *dispatch.Options

	// DataDir, when set, makes the server crash-safe: accepted jobs are
	// journaled to DataDir/journal before their submission is
	// acknowledged, results are persisted to the content-addressed store
	// under DataDir/store before completions are acknowledged, and a
	// restart replays both — the backlog is re-enqueued (attempts, lane
	// order, and deadlines preserved) and cached results survive.
	DataDir string
	// Fsync is the journal durability policy: "batch" (group-commit
	// fsync, the default), "always" (fsync per record), or "none" (OS
	// flush timing; a crash may lose the most recent acknowledgements).
	// It also controls whether result-store writes fsync.
	Fsync string
	// RecoverBestEffort salvages the valid journal prefix when startup
	// replay hits mid-journal corruption (quarantining the corrupt
	// segment) instead of refusing to start.
	RecoverBestEffort bool
	// StoreMaxBytes bounds the persistent result store (default 256 MiB);
	// least-recently-used results are evicted.
	StoreMaxBytes int64

	// Eco enables incremental re-optimization: every solver job records
	// its per-zone solutions in a zone cache (durable under DataDir/zones
	// when DataDir is set), and POST /v1/optimize accepts a "baseJobId"
	// whose zone solutions seed the new job — unchanged zones replay,
	// only the delta is solved. Off by default: recording zones adds keying
	// work and eco counters to job traces.
	Eco bool
	// ZoneCacheMaxBytes bounds the in-memory zone-solution tier (default
	// 32 MiB); ZoneStoreMaxBytes bounds the durable tier under
	// DataDir/zones (default 64 MiB). Both LRU-evict.
	ZoneCacheMaxBytes int64
	ZoneStoreMaxBytes int64

	// ShardMap, when non-nil, runs the server as one node of a sharded
	// fleet (see shardroute.go): ShardID names the shard this node owns,
	// Peers lists every node's base URL in shard order, and requests for
	// keys other shards own are forwarded a single hop to their owner.
	// All three must be set together.
	ShardMap *shard.Map
	ShardID  int
	Peers    []string
	// GossipInterval is the anti-entropy cadence: how often this node
	// pulls each peer's shard map (GET /v1/shard/map) and adopts anything
	// newer. Zero disables the loop — version piggybacking on forwards
	// still converges the routes that carry traffic, but an idle node
	// will not follow a rebalance on its own.
	GossipInterval time.Duration

	// YieldMaxSamples caps the per-candidate Monte Carlo budget a yield
	// request may ask for, below the protocol ceiling (yield.MaxSamples).
	// 0 = protocol ceiling only.
	YieldMaxSamples int
	// YieldMaxConcurrent bounds yield jobs driving the fleet at once
	// (default 2): each one fans out many chunk sub-leases, so an
	// unbounded count would let a burst of yield requests starve plain
	// optimization jobs.
	YieldMaxConcurrent int
}

func (o Options) withDefaults() Options {
	if o.QueueCapacity == 0 {
		o.QueueCapacity = 64
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.CacheMaxBytes == 0 {
		o.CacheMaxBytes = 64 << 20
	}
	if o.CacheMaxEntries == 0 {
		o.CacheMaxEntries = 4096
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.StoreMaxBytes == 0 {
		o.StoreMaxBytes = 256 << 20
	}
	if o.ZoneCacheMaxBytes == 0 {
		o.ZoneCacheMaxBytes = 32 << 20
	}
	if o.ZoneStoreMaxBytes == 0 {
		o.ZoneStoreMaxBytes = 64 << 20
	}
	if o.YieldMaxConcurrent == 0 {
		o.YieldMaxConcurrent = 2
	}
	return o
}

// Fixed service bounds.
const (
	maxRequestBytes = 8 << 20          // request body bound
	maxJobs         = 4096             // job records retained (finished ones evicted first)
	checkpointEvery = 30 * time.Second // journal compaction cadence
)

// Job statuses on the wire.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"  // solver error
	StatusExpired = "expired" // deadline passed (in queue, or cancelled mid-solve)
)

// job is one submitted optimization.
type job struct {
	id        string
	pri       jobq.Priority
	cacheHit  bool
	submitted time.Time
	cancel    context.CancelFunc

	mu            sync.Mutex
	status        string
	started       time.Time
	finished      time.Time
	resultJSON    []byte
	algorithmUsed string
	degraded      bool
	errMsg        string
	trace         *obs.Memory // non-nil iff the request asked for a trace
	// ECO bookkeeping (Options.Eco): the zone-solution keys this job
	// recorded — what a later delta submitted with baseJobId=<this id>
	// seeds from — plus the reuse counters for the job view.
	zoneKeys      []string
	zonesReused   int
	zonesResolved int
}

// jobView is the wire form of a job record.
type jobView struct {
	JobID         string `json:"jobId"`
	Status        string `json:"status"`
	Priority      string `json:"priority"`
	CacheHit      bool   `json:"cacheHit"`
	SubmittedAt   string `json:"submittedAt"`
	StartedAt     string `json:"startedAt,omitempty"`
	FinishedAt    string `json:"finishedAt,omitempty"`
	AlgorithmUsed string `json:"algorithmUsed,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	Error         string `json:"error,omitempty"`
	HasTrace      bool   `json:"hasTrace,omitempty"`
	ZonesReused   int    `json:"zonesReused,omitempty"`
	ZonesResolved int    `json:"zonesResolved,omitempty"`
}

// Metrics is a snapshot of the server's counters (also published to the
// "wavemin" expvar map as server_* entries).
type Metrics struct {
	Submitted        int64
	SolverRuns       int64 // solver attempts: lease grants of optimization jobs (local or remote) plus yield candidate solves
	CacheHits        int64
	CacheMisses      int64
	Completed        int64
	Failed           int64
	Expired          int64
	RejectedFull     int64
	RejectedDraining int64
	CacheStats       rescache.Stats
	QueueStats       jobq.Stats

	// Durable-tier counters; zero values when DataDir is unset.
	TieredCache    rescache.TieredStats
	StoreStats     castore.Stats
	JournalErrs    int64 // journal appends/waits that failed (durability degraded)
	CheckpointErrs int64 // journal checkpoints that failed
	Recovery       RecoveryInfo

	// ECO counters; zero values when Options.Eco is unset.
	EcoZonesReused   int64 // zone instances replayed instead of solved
	EcoZonesResolved int64 // zone instances solved by eco-enabled jobs
	ZoneCache        rescache.TieredStats

	// Yield-mode counters; zero until a yield request arrives.
	YieldJobs         int64 // yield runs started
	YieldChunks       int64 // sample chunks dispatched as sub-leases
	YieldChunksInline int64 // chunks evaluated inline (queue full or draining)
	YieldSamplesSaved int64 // budgeted samples early stopping never spent
	YieldEarlyStops   int64 // yield runs that stopped before the full budget

	// Shard-routing counters; zero values when Options.ShardMap is unset.
	Shard ShardMetrics
}

// RecoveryInfo describes what startup replay found in DataDir.
type RecoveryInfo struct {
	Durable      bool  // DataDir was configured
	JobsRestored int   // non-terminal jobs re-enqueued from the journal
	Ignored      int   // journal records referencing unknown job IDs
	Records      int   // journal data records replayed
	Checkpoints  int   // journal checkpoint records replayed
	TornBytes    int64 // bytes truncated from a torn journal tail
	Salvaged     bool  // best-effort recovery dropped a corrupt suffix
	Quarantined  int   // journal segments quarantined by best-effort recovery
}

type counters struct {
	submitted        atomic.Int64
	solverRuns       atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	completed        atomic.Int64
	failed           atomic.Int64
	expired          atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64
	ecoReused        atomic.Int64
	ecoResolved      atomic.Int64

	yieldJobs         atomic.Int64
	yieldChunks       atomic.Int64
	yieldChunksInline atomic.Int64
	yieldSamplesSaved atomic.Int64
	yieldEarlyStops   atomic.Int64
}

// bump increments a counter and mirrors it into the process-wide expvar
// map, so /debug/vars shows live service totals.
func bump(c *atomic.Int64, expvarName string) {
	c.Add(1)
	obs.ExpvarCounters().Add(expvarName, 1)
}

// Server is the wavemind service. Construct with New; serve Handler().
type Server struct {
	opts    Options
	q       *jobq.Queue
	cache   *rescache.Tiered
	mux     *http.ServeMux
	handler http.Handler // mux, wrapped (when sharded) in the version-piggyback middleware

	coord      *dispatch.Coordinator // local executor and lease sweeper; protocol mounted iff Options.Dispatch was set
	dispatchWG sync.WaitGroup        // finishDispatched and yield-driver goroutines in flight

	// yieldSem bounds concurrent yield drivers (Options.YieldMaxConcurrent):
	// each driver fans out chunk sub-leases, and the semaphore is what
	// keeps a burst of yield jobs from monopolizing the lease queue.
	// yieldPending counts admitted-but-unfinished yield jobs; past
	// QueueCapacity, submissions get the queue's 429.
	yieldSem     chan struct{}
	yieldPending atomic.Int64

	zones *rescache.Tiered // zone-solution tier; non-nil iff Options.Eco was set

	sh *shardState // non-nil iff Options.ShardMap was set

	// Anti-entropy gossip loop; nil/zero unless sharded with a
	// GossipInterval.
	gossipStop     chan struct{}
	gossipStopOnce sync.Once
	gossipWG       sync.WaitGroup

	// Durable tier; all nil/zero when Options.DataDir is unset.
	store      *castore.Store // backs cache
	zoneStore  *castore.Store // backs zones (Options.Eco only)
	wal        *wal.Writer
	recovery   RecoveryInfo
	ckStop     chan struct{}
	ckStopOnce sync.Once
	ckWG       sync.WaitGroup
	ckErrs     atomic.Int64

	ready    atomic.Bool
	draining atomic.Bool
	nextID   atomic.Int64
	met      counters

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for bounded retention
}

// New builds a server and starts its worker pool. With Options.DataDir
// set it first recovers: the journal is replayed, the surviving backlog
// is re-enqueued under the job IDs clients were already polling, and the
// persistent result store is reopened — only then does New return, so a
// ready server has always finished recovery.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		q:        jobq.New(opts.QueueCapacity, opts.Workers),
		jobs:     make(map[string]*job),
		yieldSem: make(chan struct{}, opts.YieldMaxConcurrent),
	}
	if opts.ShardMap != nil {
		sh, err := newShardState(opts)
		if err != nil {
			return nil, err
		}
		s.sh = sh
	} else if len(opts.Peers) != 0 {
		return nil, fmt.Errorf("server: Peers set without ShardMap (sharding needs ShardMap, ShardID, and Peers together)")
	}
	dopts := dispatch.Options{LocalExec: true}
	if opts.Dispatch != nil {
		dopts = *opts.Dispatch
	}
	if s.sh != nil && dopts.ShardLabel == "" {
		// The label names the map epoch too, and follows every
		// adoption (Coordinator.SetShardLabel in adoptMap).
		dopts.ShardLabel = shardLabel(s.sh.id, s.sh.Map().Version)
	}

	pol := wal.SyncNone
	var err error
	if opts.DataDir != "" {
		if pol, err = wal.ParseSyncPolicy(opts.Fsync); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	syncWrites := pol != wal.SyncNone
	s.cache, s.store, err = openTier(opts.DataDir, "store",
		rescache.New(opts.CacheMaxBytes, opts.CacheMaxEntries),
		castore.Options{MaxBytes: opts.StoreMaxBytes, Sync: syncWrites})
	if err != nil {
		return nil, fmt.Errorf("server: result store: %w", err)
	}
	if opts.Eco {
		s.zones, s.zoneStore, err = openTier(opts.DataDir, "zones",
			rescache.New(opts.ZoneCacheMaxBytes, 0),
			castore.Options{MaxBytes: opts.ZoneStoreMaxBytes, Sync: syncWrites})
		if err != nil {
			s.closeStores(false)
			return nil, fmt.Errorf("server: zone store: %w", err)
		}
	}
	if s.sh != nil {
		// Fleet read-through: local misses consult the key's owning
		// coordinator before falling back to a local solve.
		s.cache.SetPeer(&peerCacheTier{sh: s.sh, path: "/v1/shard/cache/"})
		if s.zones != nil {
			s.zones.SetPeer(&peerCacheTier{sh: s.sh, path: "/v1/shard/zones/"})
		}
	}

	var recovered []jobq.RecoveredJob
	var lastID uint64
	if opts.DataDir != "" {
		replayer := jobq.NewReplayer(decodeSpecPayload)
		w, rep, err := wal.Open(filepath.Join(opts.DataDir, "journal"), wal.Options{
			Sync:       pol,
			BestEffort: opts.RecoverBestEffort,
		}, replayer.Apply)
		if err != nil {
			s.closeStores(false)
			return nil, fmt.Errorf("server: journal: %w", err)
		}
		recovered, err = replayer.Jobs()
		if err != nil {
			w.Abort()
			s.closeStores(false)
			return nil, fmt.Errorf("server: %w", err)
		}
		s.wal = w
		lastID = replayer.LastID()
		s.recovery = RecoveryInfo{
			Durable:      true,
			JobsRestored: len(recovered),
			Ignored:      replayer.Ignored(),
			Records:      rep.Records,
			Checkpoints:  rep.Checkpoints,
			TornBytes:    rep.TornBytes,
			Salvaged:     rep.Salvaged,
			Quarantined:  rep.Quarantined,
		}
		s.q.AttachJournal(w, jobq.PayloadCodec{Encode: encodeSpecPayload, Decode: decodeSpecPayload})
		// Durable-before-ack: completions reach the store before the
		// queue (and its journal) learn the job completed.
		dopts.PersistResult = s.store.Put
	}

	s.coord = dispatch.NewCoordinator(s.q, dopts)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	if opts.Dispatch != nil {
		s.coord.Register(mux)
	}
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.sh != nil {
		mux.HandleFunc("GET /v1/shard/map", s.handleShardMap)
		mux.HandleFunc("POST /v1/shard/map", s.handleShardMapPost)
		mux.HandleFunc("GET /v1/shard/cache/{key}", s.handleShardLookup(s.cache))
		mux.HandleFunc("PUT /v1/shard/cache/{key}", s.handleShardPut(s.cache))
		mux.HandleFunc("GET /v1/shard/zones/{key}", s.handleShardLookup(s.zones))
		mux.HandleFunc("PUT /v1/shard/zones/{key}", s.handleShardPut(s.zones))
	}
	if opts.Debug {
		// The blank expvar and pprof imports register on the default
		// mux; mounting it exposes the same /debug/* endpoints
		// cmd/wavemin's -debug-addr serves.
		mux.Handle("GET /debug/", http.DefaultServeMux)
	}
	s.mux = mux
	s.handler = http.Handler(mux)
	if s.sh != nil {
		// Piggyback this node's live map version on EVERY response, so any
		// exchange — forwards, pushes, plain reads — doubles as a gossip
		// edge: a peer that sees a higher version fetches and adopts.
		s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(headerShardMapVersion, strconv.Itoa(s.sh.Map().Version))
			mux.ServeHTTP(w, r)
		})
	}

	if s.wal != nil {
		if err := s.restoreJobs(recovered, lastID); err != nil {
			s.wal.Abort()
			s.closeStores(false)
			return nil, err
		}
		// Compact the replayed history into one checkpoint so the next
		// start replays from here, and keep compacting in the background.
		if err := s.q.CheckpointJournal(); err != nil {
			s.ckErrs.Add(1)
		}
		s.ckStop = make(chan struct{})
		s.ckWG.Add(1)
		go s.checkpointLoop()
	}
	if s.sh != nil && opts.GossipInterval > 0 {
		s.gossipStop = make(chan struct{})
		s.gossipWG.Add(1)
		go s.gossipLoop(opts.GossipInterval)
	}
	s.ready.Store(true)
	return s, nil
}

// encodeSpecPayload / decodeSpecPayload form the journal's payload
// codec: every journaled queue payload is a *dispatch.JobSpec.
func encodeSpecPayload(payload any) ([]byte, error) {
	spec, ok := payload.(*dispatch.JobSpec)
	if !ok {
		return nil, fmt.Errorf("server: journal: unexpected payload %T", payload)
	}
	return json.Marshal(spec)
}

func decodeSpecPayload(data []byte) (any, error) {
	var spec dispatch.JobSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	return &spec, nil
}

// restoreJobs rebuilds registry records for journal-recovered jobs and
// re-enqueues them. Each job keeps the public ID its submitter was
// given, so clients polling across the crash see "queued", not 404.
func (s *Server) restoreJobs(recs []jobq.RecoveredJob, lastID uint64) error {
	type slot struct {
		j    *job
		tr   *obs.Trace
		spec *dispatch.JobSpec
	}
	slots := make(map[uint64]*slot, len(recs))
	for _, rj := range recs {
		spec, ok := rj.Payload.(*dispatch.JobSpec)
		if !ok {
			return fmt.Errorf("server: recovered job %d: unexpected payload %T", rj.ID, rj.Payload)
		}
		sl := &slot{j: s.reattachJob(spec.JobID, rj.Pri), spec: spec}
		if spec.Trace {
			// The pre-crash trace died with the process; recovered jobs
			// get a fresh one covering the post-recovery attempts.
			sl.tr = sl.j.startTrace()
		}
		slots[rj.ID] = sl
	}
	tickets := s.q.Restore(recs, lastID, func(rj jobq.RecoveredJob) func(jobq.LeaseEvent) {
		sl := slots[rj.ID]
		return s.observeJob(sl.j, sl.tr)
	})
	for i, rj := range recs {
		sl := slots[rj.ID]
		obs.ExpvarCounters().Add("server_jobs_recovered", 1)
		s.dispatchWG.Add(1)
		go s.finishDispatched(sl.j, sl.spec.Key, sl.spec.NoCache, sl.tr, tickets[i])
	}
	return nil
}

// reattachJob rebuilds the registry record of a recovered job under its
// pre-crash public ID, keeping the ID counter past every recovered ID.
func (s *Server) reattachJob(id string, pri jobq.Priority) *job {
	var n int64
	if id == "" || parseJobID(id, &n) != nil {
		id = s.newJobID()
	} else {
		for {
			cur := s.nextID.Load()
			if cur >= n || s.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	j := &job{
		id:  id,
		pri: pri,
		// The original submission time died with the crashed process;
		// recovery time is the honest substitute.
		submitted: time.Now(),
		status:    StatusQueued,
		cancel:    func() {},
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictJobsLocked()
	s.mu.Unlock()
	return j
}

func parseJobID(id string, n *int64) error {
	if _, seq, sharded, err := shard.DecodeJobID(id); err == nil && sharded {
		*n = seq
		return nil
	}
	_, err := fmt.Sscanf(id, "j-%d", n)
	return err
}

// checkpointLoop compacts the journal periodically so replay time stays
// proportional to the live backlog, not to total history.
func (s *Server) checkpointLoop() {
	defer s.ckWG.Done()
	tick := time.NewTicker(checkpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.ckStop:
			return
		case <-tick.C:
			if err := s.q.CheckpointJournal(); err != nil {
				s.ckErrs.Add(1)
			}
		}
	}
}

func (s *Server) stopCheckpoints() {
	if s.ckStop == nil {
		return
	}
	s.ckStopOnce.Do(func() { close(s.ckStop) })
	s.ckWG.Wait()
}

// Crash simulates a power failure for recovery tests: background
// goroutines stop and the journal and store are abandoned without
// flushing buffered state — disk is left exactly as kill -9 would leave
// it. The server is unusable afterward; recover by calling New on the
// same DataDir.
func (s *Server) Crash() {
	s.stopGossip()
	s.stopCheckpoints()
	s.coord.Close()
	if s.wal != nil {
		s.wal.Abort()
	}
	s.closeStores(true)
}

// Recovery reports what startup replay found.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops intake (new submissions get 503, health checks report
// draining) and waits until every accepted job has finished or ctx
// expires — the SIGTERM path.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.stopGossip()
	err := s.q.Drain(ctx)
	if err == nil {
		// The queue resolved every ticket; wait for the goroutines that
		// turn resolved tickets into job records and cache entries.
		s.dispatchWG.Wait()
	}
	s.coord.Close()
	if err != nil {
		// Backlog unfinished: leave the journal live so the state on disk
		// stays crash-consistent and the next start recovers it.
		return err
	}
	s.stopCheckpoints()
	if s.wal != nil {
		// Every job is terminal: a final checkpoint leaves an empty
		// snapshot, so the next start replays nothing.
		if cerr := s.q.CheckpointJournal(); cerr != nil {
			s.ckErrs.Add(1)
		}
		if cerr := s.wal.Close(); cerr != nil {
			err = cerr
		}
	}
	if cerr := s.closeStores(false); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// openTier builds one read-through tier — results or zone solutions —
// as mem over a castore under dataDir/name, or mem alone when the server
// has no DataDir. The store is returned too: closeStores closes or
// abandons it.
func openTier(dataDir, name string, mem *rescache.Cache, o castore.Options) (*rescache.Tiered, *castore.Store, error) {
	if dataDir == "" {
		return rescache.NewTiered(mem, nil), nil, nil
	}
	store, err := castore.Open(filepath.Join(dataDir, name), o)
	if err != nil {
		return nil, nil, err
	}
	return rescache.NewTiered(mem, store), store, nil
}

// closeStores closes the durable tiers openTier opened — or, on the
// crash path (abort), abandons them without flushing, leaving disk
// exactly as a power failure would.
func (s *Server) closeStores(abort bool) error {
	var err error
	for _, st := range []*castore.Store{s.store, s.zoneStore} {
		switch {
		case st == nil:
		case abort:
			st.Abort()
		default:
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Coordinator returns the dispatch coordinator that runs the server's
// jobs. Its /v1/dispatch/* protocol is mounted only when Options.Dispatch
// is set.
func (s *Server) Coordinator() *dispatch.Coordinator { return s.coord }

// MetricsSnapshot returns the server's counters.
func (s *Server) MetricsSnapshot() Metrics {
	tiered := s.cache.Stats()
	m := Metrics{
		Submitted:        s.met.submitted.Load(),
		SolverRuns:       s.met.solverRuns.Load(),
		CacheHits:        s.met.cacheHits.Load(),
		CacheMisses:      s.met.cacheMisses.Load(),
		Completed:        s.met.completed.Load(),
		Failed:           s.met.failed.Load(),
		Expired:          s.met.expired.Load(),
		RejectedFull:     s.met.rejectedFull.Load(),
		RejectedDraining: s.met.rejectedDraining.Load(),
		CacheStats:       tiered.Mem,
		QueueStats:       s.q.Snapshot(),
		TieredCache:      tiered,
		JournalErrs:      s.q.JournalErrs(),
		CheckpointErrs:   s.ckErrs.Load(),
		Recovery:         s.recovery,
	}
	if s.store != nil {
		m.StoreStats = s.store.Stats()
	}
	if s.zones != nil {
		m.EcoZonesReused = s.met.ecoReused.Load()
		m.EcoZonesResolved = s.met.ecoResolved.Load()
		m.ZoneCache = s.zones.Stats()
	}
	if s.sh != nil {
		m.Shard = s.sh.metrics()
	}
	m.YieldJobs = s.met.yieldJobs.Load()
	m.YieldChunks = s.met.yieldChunks.Load()
	m.YieldChunksInline = s.met.yieldChunksInline.Load()
	m.YieldSamplesSaved = s.met.yieldSamplesSaved.Load()
	m.YieldEarlyStops = s.met.yieldEarlyStops.Load()
	return m
}

// --- submission ----------------------------------------------------------

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejectDraining(w)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeAPIError(w, &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
			return
		}
		writeAPIError(w, badRequest("reading request body: %v", err))
		return
	}
	req, apiErr := decodeOptimizeRequest(body, s.opts)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if s.sh != nil && s.routeOptimize(w, r, req, body) {
		// Another shard owns the key: the request was forwarded (or
		// refused) and everything below — admission counters included —
		// happens on the owner.
		return
	}
	if apiErr := s.attachEco(req); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	bump(&s.met.submitted, "server_jobs_submitted")

	if !req.noCache {
		if blob, ok := s.cache.Get(req.key); ok {
			s.serveCacheHit(w, req, blob)
			return
		}
		bump(&s.met.cacheMisses, "server_cache_misses")
	}

	j := s.addJob(req, false)
	deadline := time.Now().Add(req.timeout)
	jctx, cancel := context.WithDeadline(context.Background(), deadline)
	j.cancel = cancel
	if req.yield != nil {
		err = s.submitYield(jctx, j, req)
	} else {
		err = s.submitDispatched(jctx, j, req, deadline)
	}
	if err != nil {
		cancel()
		s.removeJob(j.id)
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"jobId": j.id, "status": StatusQueued, "cacheHit": false,
	})
}

// serveCacheHit answers a submission from cached result bytes — this
// node's cache or a replica's copy — with a cache-hit job record minted
// already finished.
func (s *Server) serveCacheHit(w http.ResponseWriter, req *optimizeRequest, blob []byte) {
	bump(&s.met.cacheHits, "server_cache_hits")
	var res struct {
		AlgorithmUsed string
	}
	_ = json.Unmarshal(blob, &res) // own marshaling; best-effort decoration
	j := s.addJob(req, true)
	j.land(StatusDone, blob, res.AlgorithmUsed, false, "")
	writeJSON(w, http.StatusOK, map[string]any{
		"jobId": j.id, "status": StatusDone, "cacheHit": true,
	})
}

// --- incremental re-optimization (ECO) -----------------------------------

// attachEco resolves a request's ECO inputs before admission. With
// Options.Eco set, every solver job records its zone solutions (an empty
// ECOConfig); a baseJobId additionally seeds the run with the base job's
// solutions so unchanged zones replay. Every rejection is a structured
// 4xx — an unknown base is a 404, a base whose result cannot seed a delta
// is a 409 — never a 5xx: a bad base reference is a client error, and a
// missing seed is at worst a cold solve, not a failure.
func (s *Server) attachEco(req *optimizeRequest) *apiError {
	if req.yield != nil {
		// Yield candidate solves never record or replay zones: the
		// candidate ladder perturbs zoning knobs, so zone keys would not
		// line up across candidates — and the decoder already rejected
		// yield+baseJobId.
		return nil
	}
	if req.baseJobID != "" {
		if s.zones == nil {
			return &apiError{status: http.StatusBadRequest, code: "eco_disabled",
				message: "baseJobId requires the server's ECO mode (Options.Eco / wavemind -eco)"}
		}
		seeds, apiErr := s.resolveBase(req.baseJobID)
		if apiErr != nil {
			return apiErr
		}
		req.cfg.ECO = &wavemin.ECOConfig{BaseZones: seeds}
		return nil
	}
	if s.zones != nil {
		req.cfg.ECO = &wavemin.ECOConfig{}
	}
	return nil
}

// resolveBase turns a base job reference into the seed map a delta run
// starts from.
func (s *Server) resolveBase(id string) (map[string][]byte, *apiError) {
	j := s.lookup(id)
	if j == nil {
		// The registry forgets finished jobs at restart and under
		// retention pressure, but every clean completion also persisted
		// its job → zone-keys mapping in the zone store — a recovered
		// coordinator answers deltas from the durable tier.
		if raw, ok := s.zones.Get(jobZonesKey(id)); ok {
			var keys []string
			if json.Unmarshal(raw, &keys) == nil {
				return s.fetchZones(keys), nil
			}
		}
		return nil, &apiError{status: http.StatusNotFound, code: "unknown_base",
			message: fmt.Sprintf("base job %q: no such job (unknown, evicted, or never completed cleanly)", id)}
	}
	j.mu.Lock()
	status, degraded, keys := j.status, j.degraded, j.zoneKeys
	j.mu.Unlock()
	reject := func(msg string) (map[string][]byte, *apiError) {
		return nil, &apiError{status: http.StatusConflict, code: "base_not_reusable",
			message: fmt.Sprintf("base job %q: %s", id, msg)}
	}
	switch {
	case status != StatusDone:
		return reject("job is " + status + "; a delta needs a finished base")
	case degraded:
		return reject("result is degraded (deadline-shaped); a delta never seeds from degraded solutions")
	case len(keys) == 0:
		return reject("job recorded no zone solutions (cache hit, multi-mode, or pre-ECO run)")
	}
	return s.fetchZones(keys), nil
}

// fetchZones loads whichever of the base's solutions are still cached.
// Misses are dropped, not errors: seeds are an optimization, so an
// evicted solution just means that zone is re-solved.
func (s *Server) fetchZones(keys []string) map[string][]byte {
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := s.zones.Get(k); ok {
			out[k] = v
		}
	}
	return out
}

// jobZonesKey derives the zone-store key of a job's zone-keys mapping
// from its public ID (store keys must be hex digests; job IDs are not).
func jobZonesKey(jobID string) string {
	sum := sha256.Sum256([]byte("wavemin-jobzones\x00" + jobID))
	return hex.EncodeToString(sum[:])
}

// landZones records a cleanly completed job's zone solutions: each lands
// in the zone cache (and its durable tier), and the sorted key list lands
// both in the job record and — keyed by job ID — in the store itself, so
// the job can seed deltas even after the registry forgets it. Callers
// skip degraded results entirely.
func (s *Server) landZones(j *job, zones map[string][]byte, reused, resolved int) {
	if s.zones == nil {
		return
	}
	s.met.ecoReused.Add(int64(reused))
	s.met.ecoResolved.Add(int64(resolved))
	obs.ExpvarCounters().Add("server_eco_zones_reused", int64(reused))
	obs.ExpvarCounters().Add("server_eco_zones_resolved", int64(resolved))
	keys := make([]string, 0, len(zones))
	for k, v := range zones {
		s.zones.Put(k, v)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		if blob, err := json.Marshal(keys); err == nil {
			s.zones.Put(jobZonesKey(j.id), blob)
		}
	}
	j.mu.Lock()
	j.zoneKeys = keys
	j.zonesReused = reused
	j.zonesResolved = resolved
	j.mu.Unlock()
}

// writeSubmitError renders a queue-admission failure: 429 + Retry-After
// on a full backlog, 503 while draining, 400 otherwise.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobq.ErrFull):
		bump(&s.met.rejectedFull, "server_rejected_full")
		retry := s.q.RetryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": map[string]any{
				"code":              "queue_full",
				"message":           "job queue at capacity; retry later",
				"retryAfterSeconds": int(retry.Seconds()),
			},
		})
	case errors.Is(err, jobq.ErrDraining):
		s.rejectDraining(w)
	default:
		writeAPIError(w, badRequest("submit: %v", err))
	}
}

// submitDispatched enqueues an optimization job as a serializable
// JobSpec that the local executor or a remote worker runs — same
// deadline, same cache policy, same canonical result bytes wherever it
// lands.
func (s *Server) submitDispatched(jctx context.Context, j *job, req *optimizeRequest, deadline time.Time) error {
	spec := &dispatch.JobSpec{
		Tree:     req.tree,
		Config:   req.cfg,
		Modes:    req.modes,
		Trace:    req.trace,
		Key:      req.key,
		Deadline: deadline,
		JobID:    j.id,
		NoCache:  req.noCache,
	}
	var tr *obs.Trace
	if req.trace {
		tr = j.startTrace()
		s.recordForwardHop(tr, req)
	}
	tk, err := s.q.SubmitLeasable(jctx, req.pri, spec, s.observeJob(j, tr))
	if err != nil {
		return err
	}
	s.dispatchWG.Add(1)
	go s.finishDispatched(j, req.key, req.noCache, tr, tk)
	return nil
}

// observeJob is the lease-event callback of one optimization job: it
// builds the job's dispatch trace (when tr is non-nil), counts every
// granted attempt — local or remote — as a solver run, and marks the
// record running at the first grant. It runs under the queue lock:
// trace, counter and job-record writes only.
func (s *Server) observeJob(j *job, tr *obs.Trace) func(jobq.LeaseEvent) {
	trace := dispatch.TraceObserver(tr)
	return func(ev jobq.LeaseEvent) {
		if trace != nil {
			trace(ev)
		}
		if ev.Kind != jobq.LeaseGranted {
			return
		}
		bump(&s.met.solverRuns, "server_solver_runs")
		j.mu.Lock()
		if j.status == StatusQueued {
			j.status = StatusRunning
			j.started = time.Now()
		}
		j.mu.Unlock()
	}
}

// finishDispatched waits for a job's ticket and lands the outcome in the
// job record and (for clean, undegraded results) the cache. It takes the
// key and cache policy rather than the request because recovered jobs
// have no request: their spec is all that survived the crash.
func (s *Server) finishDispatched(j *job, key string, noCache bool, tr *obs.Trace, tk *jobq.Ticket) {
	defer s.dispatchWG.Done()
	defer j.cancel()
	<-tk.Done()
	result, err := tk.Outcome()
	if ferr := tr.Flush(); ferr != nil && err == nil {
		err = fmt.Errorf("trace flush: %w", ferr)
	}
	out, ok := result.(*dispatch.Outcome)
	if err == nil && !ok {
		err = fmt.Errorf("dispatch: unexpected outcome %T", result)
	}
	if err != nil {
		s.finish(j, nil, "", false, err)
		return
	}
	// Degraded results are what the deadline allowed, not the answer to
	// the problem — caching one would serve a worse tree to a future
	// caller with a roomier budget. Memory tier only: the bytes already
	// reached the persistent store (when one is configured) before the
	// completion was acknowledged.
	if !out.Degraded {
		if !noCache {
			s.cache.PutLocal(key, out.ResultJSON)
			s.replicateResult(key, out.ResultJSON)
		}
		s.landZones(j, out.Zones, out.ZonesReused, out.ZonesResolved)
	}
	s.finish(j, out.ResultJSON, out.AlgorithmUsed, out.Degraded, nil)
}

// finish records a job's terminal state and counts it. A nil err lands
// the result bytes and their decoration; otherwise context exhaustion —
// the deadline passing in the queue, on a lease, or mid-solve — is an
// expiry, and every other error, retry exhaustion included, a failure.
func (s *Server) finish(j *job, blob []byte, algorithm string, degraded bool, err error) {
	status, msg := StatusDone, ""
	switch {
	case err == nil:
		bump(&s.met.completed, "server_jobs_completed")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status, msg = StatusExpired, err.Error()
		bump(&s.met.expired, "server_jobs_expired")
	default:
		status, msg = StatusFailed, err.Error()
		bump(&s.met.failed, "server_jobs_failed")
	}
	j.land(status, blob, algorithm, degraded, msg)
}

func (s *Server) rejectDraining(w http.ResponseWriter) {
	bump(&s.met.rejectedDraining, "server_rejected_draining")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error": map[string]any{"code": "draining", "message": "server is draining; not accepting new jobs"},
	})
}

// land moves j to a terminal state.
func (j *job) land(status string, blob []byte, algorithm string, degraded bool, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	j.finished = time.Now()
	j.resultJSON = blob
	j.algorithmUsed = algorithm
	j.degraded = degraded
	j.errMsg = errMsg
}

// startTrace gives j a fresh trace: its events land in the job's memory
// sink (served by GET /v1/jobs/{id}/trace) and the expvar mirror.
func (j *job) startTrace() *obs.Trace {
	mem := &obs.Memory{}
	tr := obs.New(obs.Options{})
	tr.AttachSink(mem)
	tr.AttachSink(obs.ExpvarSink{})
	j.mu.Lock()
	j.trace = mem
	j.mu.Unlock()
	return tr
}

// --- job registry --------------------------------------------------------

// newJobID mints the next public job ID. Sharded nodes bake their shard
// into the ID (j-s<shard>-<seq>), so any fleet node can route a later
// read straight to the owner without a registry lookup.
func (s *Server) newJobID() string {
	n := s.nextID.Add(1)
	if s.sh != nil {
		return shard.EncodeJobID(s.sh.id, n)
	}
	return fmt.Sprintf("j-%06d", n)
}

func (s *Server) addJob(req *optimizeRequest, cacheHit bool) *job {
	id := s.newJobID()
	j := &job{
		id:        id,
		pri:       req.pri,
		cacheHit:  cacheHit,
		submitted: time.Now(),
		status:    StatusQueued,
		cancel:    func() {},
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictJobsLocked()
	s.mu.Unlock()
	return j
}

func (s *Server) removeJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// evictJobsLocked drops the oldest FINISHED job records beyond maxJobs,
// so the registry cannot grow without bound while never forgetting a
// live job. The guard counts s.order, not s.jobs: removeJob (a refused
// submission) deletes only the record, and the compaction below is what
// drops its ID. Caller holds s.mu.
func (s *Server) evictJobsLocked() {
	if len(s.order) <= maxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs) > maxJobs {
			j.mu.Lock()
			finished := j.status == StatusDone || j.status == StatusFailed || j.status == StatusExpired
			j.mu.Unlock()
			if finished {
				delete(s.jobs, id)
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = append([]string(nil), kept...)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// --- read endpoints ------------------------------------------------------

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.sh != nil && s.routeJobRead(w, r, r.PathValue("id")) {
		return
	}
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, &apiError{status: http.StatusNotFound, code: "unknown_job", message: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		JobID:         j.id,
		Status:        j.status,
		Priority:      j.pri.String(),
		CacheHit:      j.cacheHit,
		SubmittedAt:   j.submitted.UTC().Format(time.RFC3339Nano),
		AlgorithmUsed: j.algorithmUsed,
		Degraded:      j.degraded,
		Error:         j.errMsg,
		HasTrace:      j.trace != nil,
		ZonesReused:   j.zonesReused,
		ZonesResolved: j.zonesResolved,
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.sh != nil && s.routeJobRead(w, r, r.PathValue("id")) {
		return
	}
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, &apiError{status: http.StatusNotFound, code: "unknown_job", message: "no such job"})
		return
	}
	j.mu.Lock()
	status := j.status
	blob := j.resultJSON
	errMsg := j.errMsg
	cacheHit := j.cacheHit
	j.mu.Unlock()
	switch status {
	case StatusDone:
		writeJSON(w, http.StatusOK, map[string]any{
			"jobId":    j.id,
			"cacheHit": cacheHit,
			"result":   json.RawMessage(blob),
		})
	case StatusFailed, StatusExpired:
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": map[string]any{"code": "job_" + status, "message": errMsg},
		})
	default:
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": map[string]any{"code": "not_finished", "message": "job is " + status + "; poll GET /v1/jobs/{id}"},
		})
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.sh != nil && s.routeJobRead(w, r, r.PathValue("id")) {
		return
	}
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeAPIError(w, &apiError{status: http.StatusNotFound, code: "unknown_job", message: "no such job"})
		return
	}
	j.mu.Lock()
	mem := j.trace
	status := j.status
	j.mu.Unlock()
	if mem == nil {
		writeAPIError(w, &apiError{status: http.StatusNotFound, code: "no_trace",
			message: "job captured no trace (submit with \"trace\": true; cache hits run no solver and have none)"})
		return
	}
	if status == StatusQueued || status == StatusRunning {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": map[string]any{"code": "not_finished", "message": "job is " + status + "; poll GET /v1/jobs/{id}"},
		})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	_ = obs.Encode(w, mem.Events())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	body := map[string]any{"status": "ok"}
	if s.sh != nil {
		body["shardId"] = s.sh.id
		body["shardMapVersion"] = s.sh.Map().Version
	}
	writeJSON(w, http.StatusOK, body)
}

// --- response helpers ----------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.status, map[string]any{
		"error": map[string]any{"code": e.code, "message": e.message},
	})
}
