package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"wavemin/internal/dispatch"
	"wavemin/internal/server"
	"wavemin/internal/shard"
)

// fleet is the service under test: one or more in-process wavemind
// servers on loopback listeners with ephemeral ports, plus any dispatch
// workers pulling from them.
type fleet struct {
	srvs    []*server.Server
	urls    []string
	https   []*httptest.Server
	workers []*benchWorker
	dataDir string
}

type benchWorker struct {
	cancel context.CancelFunc
	done   chan error
}

// listen starts n loopback listeners whose handlers are bound later, so
// a sharded fleet can learn every peer URL before its servers exist.
func (f *fleet) listen(n int) []*atomic.Pointer[server.Server] {
	ptrs := make([]*atomic.Pointer[server.Server], n)
	for i := range ptrs {
		p := &atomic.Pointer[server.Server]{}
		ptrs[i] = p
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := p.Load()
			if s == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			s.Handler().ServeHTTP(w, r)
		}))
		f.https = append(f.https, ts)
		f.urls = append(f.urls, ts.URL)
	}
	return ptrs
}

// startSingle runs one server with the given options.
func startSingle(opts server.Options) (*fleet, error) {
	f := &fleet{dataDir: opts.DataDir}
	ptrs := f.listen(1)
	s, err := server.New(opts)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("server: %w", err)
	}
	ptrs[0].Store(s)
	f.srvs = []*server.Server{s}
	return f, nil
}

// startSharded runs an n-node sharded fleet on a static map, without the
// gossip loop and without replicas.
func startSharded(n int, base server.Options) (*fleet, *shard.Map, error) {
	m, err := shard.New(1, 8, n)
	if err != nil {
		return nil, nil, err
	}
	f := &fleet{}
	ptrs := f.listen(n)
	for i := 0; i < n; i++ {
		opts := base
		opts.ShardMap, opts.ShardID, opts.Peers = m, i, f.urls
		s, err := server.New(opts)
		if err != nil {
			f.close()
			return nil, nil, fmt.Errorf("server %d: %w", i, err)
		}
		ptrs[i].Store(s)
		f.srvs = append(f.srvs, s)
	}
	return f, m, nil
}

// addWorker starts one dispatch worker pulling from the first server.
func (f *fleet) addWorker(id string) error {
	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator:   f.urls[0],
		ID:            id,
		SolverWorkers: 1,
		PollWait:      time.Second,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	bw := &benchWorker{cancel: cancel, done: make(chan error, 1)}
	go func() { bw.done <- w.Run(ctx) }()
	f.workers = append(f.workers, bw)
	return nil
}

// close drains every server (finishing accepted work), stops the workers
// and listeners, and removes the data directory. It waits for everything
// it started.
func (f *fleet) close() error {
	var errs []error
	for _, s := range f.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("drain: %w", err))
		}
		cancel()
	}
	for _, w := range f.workers {
		w.cancel()
		if err := <-w.done; err != nil && !errors.Is(err, context.Canceled) {
			errs = append(errs, fmt.Errorf("dispatch worker: %w", err))
		}
	}
	for _, ts := range f.https {
		ts.Close()
	}
	if f.dataDir != "" {
		if err := os.RemoveAll(f.dataDir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// metrics snapshots every server's counters.
func (f *fleet) metrics() []server.Metrics {
	out := make([]server.Metrics, len(f.srvs))
	for i, s := range f.srvs {
		out[i] = s.MetricsSnapshot()
	}
	return out
}
