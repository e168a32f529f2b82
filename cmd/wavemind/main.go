// Command wavemind serves WaveMin clock-tree optimization as a batch
// service: an HTTP JSON API over a bounded prioritized job queue with a
// content-addressed result cache — and, optionally, a coordinator/worker
// fleet that fans solves out across machines.
//
// Usage:
//
//	wavemind [-role serve|coordinator|worker] [-addr :8080]
//	         [-queue 64] [-workers 2] [-solver-workers 0]
//	         [-cache-bytes 67108864] [-cache-entries 4096]
//	         [-default-timeout 30s] [-max-timeout 2m] [-drain-timeout 1m]
//	         [-lease-ttl 15s] [-max-attempts 3] [-dispatch-local]
//	         [-join URL] [-worker-id ID] [-poll-wait 2s]
//	         [-data-dir DIR] [-fsync batch] [-recover-best-effort]
//	         [-store-bytes 268435456] [-debug]
//	         [-shard-id N -shard-map v1:8:3 -peers URL,URL,URL]
//
// A fleet of serve/coordinator nodes becomes one logical service with
// -shard-id/-shard-map/-peers: every node carries the same versioned
// key-space map, owns the requests whose cache key hashes into its
// shard, and forwards the rest a single hop to the owner. See the
// README's Running a fleet section.
//
// Roles:
//
//	serve        (default) the single-process service: every job runs
//	             on this process's worker pool.
//	coordinator  the same HTTP API plus the /v1/dispatch/* pull protocol:
//	             `-role=worker` processes lease jobs, heartbeat while
//	             solving, and deliver results; lapsed leases requeue with
//	             a bounded retry budget. With -dispatch-local (default
//	             on) the local pool still runs whatever no worker claims.
//	worker       no HTTP API; joins the coordinator at -join and pulls
//	             jobs until SIGTERM or the coordinator drains.
//
// Every role runs a job the same way — a serializable job spec on the
// lease queue, executed by the same function — so results are
// byte-identical whichever process solves them.
//
// Submit work with POST /v1/optimize ({"tree": <wavemin-clocktree-v1>,
// "config": {...}}), poll GET /v1/jobs/{id}, fetch GET
// /v1/jobs/{id}/result. See the README's Serving and Scaling out
// sections for the full API. On SIGTERM/SIGINT the server stops intake
// (new submissions get 503) and finishes every job already accepted
// before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wavemin/internal/dispatch"
	"wavemin/internal/server"
	"wavemin/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wavemind: ")

	var (
		role          = flag.String("role", "serve", "process role: serve, coordinator, or worker")
		addr          = flag.String("addr", ":8080", "listen address (serve/coordinator)")
		queue         = flag.Int("queue", 64, "job backlog capacity; submissions beyond it get 429 + Retry-After")
		workers       = flag.Int("workers", 2, "jobs optimized concurrently")
		solverWorkers = flag.Int("solver-workers", 0, "cap on per-job solver goroutines (0 = no cap); results are identical for every count")
		cacheBytes    = flag.Int64("cache-bytes", 64<<20, "result cache size bound, bytes")
		cacheEntries  = flag.Int("cache-entries", 4096, "result cache entry bound")
		defTimeout    = flag.Duration("default-timeout", 30*time.Second, "per-job deadline when the request names none (queue wait included)")
		maxTimeout    = flag.Duration("max-timeout", 2*time.Minute, "per-job deadline ceiling")
		drainTimeout  = flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for accepted jobs to finish")
		debug         = flag.Bool("debug", false, "serve expvar (/debug/vars) and pprof (/debug/pprof) on -addr")

		dataDir    = flag.String("data-dir", "", "durable state directory (journal + result store); empty = in-memory only")
		fsync      = flag.String("fsync", "batch", "journal durability: always, batch, or none")
		recoverBE  = flag.Bool("recover-best-effort", false, "salvage the valid journal prefix past mid-journal corruption instead of refusing to start")
		storeBytes = flag.Int64("store-bytes", 256<<20, "persistent result store size bound, bytes (with -data-dir)")

		eco            = flag.Bool("eco", false, "enable incremental re-optimization: record per-zone solutions and accept baseJobId deltas (durable under -data-dir)")
		zoneCacheBytes = flag.Int64("zone-cache-bytes", 32<<20, "in-memory zone-solution cache bound, bytes (with -eco)")
		zoneStoreBytes = flag.Int64("zone-store-bytes", 64<<20, "durable zone-solution store bound, bytes (with -eco and -data-dir)")

		leaseTTL      = flag.Duration("lease-ttl", 15*time.Second, "coordinator: lease heartbeat deadline; a silent worker loses the job after this")
		maxAttempts   = flag.Int("max-attempts", 3, "coordinator: lease grants per job before it fails as retry-exhausted")
		dispatchLocal = flag.Bool("dispatch-local", true, "coordinator: let the local pool run jobs no worker claims")

		join     = flag.String("join", "", "worker: coordinator base URL, e.g. http://coord:8080")
		workerID = flag.String("worker-id", "", "worker: identity in protocol messages (default host-pid)")
		pollWait = flag.Duration("poll-wait", 2*time.Second, "worker: lease long-poll duration")

		shardID   = flag.Int("shard-id", -1, "fleet: the shard this node owns (with -shard-map and -peers)")
		shardMap  = flag.String("shard-map", "", "fleet: encoded shard map, v<version>:<prefix-bits>:<shards>[:<assignments>][:r<replicas>] — the boot map; a live fleet converges on the highest gossiped version")
		peersList = flag.String("peers", "", "fleet: comma-separated coordinator base URLs in shard order, one per shard (this node's own entry included)")
		replicas  = flag.Int("replicas", 0, "fleet: readers per bucket (ring successors of the owner); a dead owner's cached reads degrade to a replica instead of 503")
		gossipInt = flag.Duration("gossip-interval", 2*time.Second, "fleet: anti-entropy map pull cadence (0 disables the loop; version piggybacking on forwards still converges active routes)")

		yieldMaxSamples    = flag.Int("yield-max-samples", 0, "cap on a yield request's per-candidate Monte Carlo budget (0 = protocol ceiling)")
		yieldMaxConcurrent = flag.Int("yield-max-concurrent", 2, "yield jobs driving the fleet at once; further admitted jobs wait queued")
	)
	flag.Parse()

	switch *role {
	case "worker":
		runWorker(*join, *workerID, *solverWorkers, *pollWait)
		return
	case "serve", "coordinator":
	default:
		log.Fatalf("unknown -role %q (want serve, coordinator, or worker)", *role)
	}

	opts := server.Options{
		QueueCapacity:      *queue,
		Workers:            *workers,
		MaxSolverWorkers:   *solverWorkers,
		CacheMaxBytes:      *cacheBytes,
		CacheMaxEntries:    *cacheEntries,
		DefaultTimeout:     *defTimeout,
		MaxTimeout:         *maxTimeout,
		Debug:              *debug,
		DataDir:            *dataDir,
		Fsync:              *fsync,
		RecoverBestEffort:  *recoverBE,
		StoreMaxBytes:      *storeBytes,
		Eco:                *eco,
		ZoneCacheMaxBytes:  *zoneCacheBytes,
		ZoneStoreMaxBytes:  *zoneStoreBytes,
		YieldMaxSamples:    *yieldMaxSamples,
		YieldMaxConcurrent: *yieldMaxConcurrent,
	}
	if *role == "coordinator" {
		opts.Dispatch = &dispatch.Options{
			LeaseTTL:    *leaseTTL,
			MaxAttempts: *maxAttempts,
			LocalExec:   *dispatchLocal,
		}
	}
	if *shardMap != "" || *shardID >= 0 || *peersList != "" {
		if *shardMap == "" || *shardID < 0 || *peersList == "" {
			log.Fatal("sharding needs all three of -shard-id, -shard-map, and -peers")
		}
		m, err := shard.Decode(*shardMap)
		if err != nil {
			log.Fatalf("-shard-map: %v", err)
		}
		if *replicas > 0 && m.Replicas == nil {
			// A map that already encodes replica sets wins over the flag:
			// -replicas is the convenience spelling for uniform ring
			// successors on a plain boot map.
			if m, err = m.WithReplicas(*replicas); err != nil {
				log.Fatalf("-replicas: %v", err)
			}
		}
		opts.ShardMap = m
		opts.ShardID = *shardID
		opts.Peers = strings.Split(*peersList, ",")
		opts.GossipInterval = *gossipInt
	}
	srv, err := server.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	if rec := srv.Recovery(); rec.Durable {
		log.Printf("recovered %d job(s) from %s (replayed %d records, %d checkpoint(s))",
			rec.JobsRestored, *dataDir, rec.Records, rec.Checkpoints)
		if rec.Salvaged || rec.TornBytes > 0 {
			log.Printf("journal recovery was lossy: torn bytes %d, salvaged=%v, quarantined segments %d",
				rec.TornBytes, rec.Salvaged, rec.Quarantined)
		}
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	go func() {
		defer close(done)
		sig := <-sigCh
		log.Printf("%v: draining (intake closed, finishing accepted jobs)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("drain incomplete: %v (abandoning in-flight jobs)", err)
		} else {
			log.Printf("drained cleanly")
		}
		// Jobs are done (or abandoned); now close the listener and let
		// straggling HTTP reads/polls finish.
		if err := hs.Shutdown(ctx); err != nil {
			_ = hs.Close()
		}
	}()

	log.Printf("serving on %s as %s (queue %d, %d workers)", *addr, *role, *queue, *workers)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

// runWorker joins a coordinator and pulls jobs until SIGTERM/SIGINT or
// until the coordinator reports it is draining.
func runWorker(join, id string, solverWorkers int, pollWait time.Duration) {
	if join == "" {
		log.Fatal("-role=worker requires -join=<coordinator-url>")
	}
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator:   join,
		ID:            id,
		SolverWorkers: solverWorkers,
		PollWait:      pollWait,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigCh
		log.Printf("%v: leaving the fleet (in-flight lease is handed back for retry)", sig)
		cancel()
	}()

	log.Printf("worker %s joining %s", id, join)
	switch err := w.Run(ctx); {
	case err == nil:
		log.Printf("coordinator drained; exiting")
	case errors.Is(err, context.Canceled):
		log.Printf("worker stopped")
	default:
		log.Fatal(err)
	}
}
