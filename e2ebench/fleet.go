package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/tstore"
)

// replicaNames are the router's ring members. The ring hashes these names,
// not the harness's ephemeral loopback ports, so model and series placement
// is identical on every run and every commit; the upstream transport maps
// each name to its replica's address.
var replicaNames = []string{"r0", "r1", "r2", "r3"}

// benchHeader carries the benchmark's request ID through the router (which
// forwards request headers upstream) to the replica, keying the spans of
// one request.
const benchHeader = "X-Bench-Request"

// rig is one in-process fleet: the fleet router in front of four service
// replicas built with fleet.NewHarness, each with its own tstore under dir,
// plus the load generator's client.
type rig struct {
	dir      string
	harness  *fleet.Harness
	servers  []*service.Server
	stores   []*tstore.Store
	router   *fleet.Router
	upstream *http.Transport
	srv      *http.Server
	served   sync.WaitGroup
	url      string

	client *http.Client
	dials  atomic.Int64
}

func startRig(dir string, conns int, spans *spanLog) (*rig, error) {
	rg := &rig{dir: dir, servers: make([]*service.Server, len(replicaNames)), stores: make([]*tstore.Store, len(replicaNames))}
	var openErr error
	h, err := fleet.NewHarness(len(replicaNames), func(i int) http.Handler {
		st, err := tstore.Open(filepath.Join(dir, replicaNames[i]), tstore.Options{})
		if err != nil {
			openErr = errors.Join(openErr, err)
			return http.NotFoundHandler()
		}
		rg.stores[i] = st
		rg.servers[i] = service.New(service.Config{Store: st})
		return spans.wrap(layerReplica0+i, rg.servers[i].Handler())
	})
	if err == nil {
		err = openErr
	}
	if err != nil {
		if h != nil {
			h.Close()
		}
		rg.closeStores()
		return nil, fmt.Errorf("start replicas: %w", err)
	}
	rg.harness = h
	addrs := h.Addrs()
	var d net.Dialer
	rg.upstream = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				return nil, err
			}
			for i, n := range replicaNames {
				if n == host {
					return d.DialContext(ctx, network, addrs[i])
				}
			}
			return nil, fmt.Errorf("no replica named %q", host)
		},
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     30 * time.Second,
	}
	rg.router, err = fleet.New(fleet.Config{Replicas: replicaNames, Transport: rg.upstream})
	if err != nil {
		rg.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rg.close()
		return nil, err
	}
	rg.url = "http://" + ln.Addr().String()
	rg.srv = &http.Server{Handler: spans.wrap(layerRouter, rg.router.Handler())}
	rg.served.Add(1)
	go func() {
		defer rg.served.Done()
		_ = rg.srv.Serve(ln) // returns ErrServerClosed from close
	}()
	rg.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				rg.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return rg, nil
}

// close stops the client, the router's server and prober, the replicas and
// their stores, then removes the rig's directory.
func (rg *rig) close() {
	if rg.client != nil {
		rg.client.CloseIdleConnections()
	}
	if rg.srv != nil {
		_ = rg.srv.Close()
		rg.served.Wait()
	}
	if rg.router != nil {
		rg.router.Close()
	}
	if rg.harness != nil {
		rg.harness.Close()
	}
	if rg.upstream != nil {
		rg.upstream.CloseIdleConnections()
	}
	rg.closeStores()
	_ = os.RemoveAll(rg.dir)
}

func (rg *rig) closeStores() {
	for _, st := range rg.stores {
		if st != nil {
			_ = st.Close()
		}
	}
}

// replicaStats sums the counters the per-layer metrics read from every
// replica's Stats, the /v1/stats payload.
type replicaStats struct {
	hits, misses, compiles, evictions, shared int64
	queuedEvents                              int64
	queueWaitP99MS                            float64
	factorizations                            int64
	batchSolves, batchRHS                     int64
}

func (rg *rig) stats() replicaStats {
	var s replicaStats
	for _, srv := range rg.servers {
		st := srv.Stats()
		s.hits += st.Cache.Hits
		s.misses += st.Cache.Misses
		s.compiles += st.Cache.Compiles
		s.evictions += st.Cache.Evictions
		s.shared += st.Cache.Shared
		s.factorizations += st.Solver.Factorizations
		for bucket, n := range st.Solver.BatchWidths {
			s.batchSolves += n
			s.batchRHS += n * batchBucketWidth(bucket)
		}
		if st.Admission != nil {
			for _, t := range st.Admission.Tenants {
				s.queuedEvents += t.QueuedEvents
				s.queueWaitP99MS = max(s.queueWaitP99MS, t.QueueWaitP99MS)
			}
		}
	}
	return s
}

// batchBucketWidth reads a batch-width histogram bucket ("1", "2", "3-4",
// ... "65+") as its lowest width, so batch_width_mean is a lower bound.
func batchBucketWidth(bucket string) int64 {
	var w int64
	fmt.Sscanf(bucket, "%d", &w)
	return w
}

func (s replicaStats) minus(o replicaStats) replicaStats {
	return replicaStats{
		hits: s.hits - o.hits, misses: s.misses - o.misses, compiles: s.compiles - o.compiles,
		evictions: s.evictions - o.evictions, shared: s.shared - o.shared,
		queuedEvents: s.queuedEvents - o.queuedEvents, queueWaitP99MS: s.queueWaitP99MS,
		factorizations: s.factorizations - o.factorizations,
		batchSolves:    s.batchSolves - o.batchSolves, batchRHS: s.batchRHS - o.batchRHS,
	}
}
