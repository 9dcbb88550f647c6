package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers: the router's handler and each replica's handler.
const (
	layerRouter   = 0
	layerReplica0 = 1
)

// span is one handler invocation for one benchmark request.
type span struct {
	id         int // the X-Bench-Request value
	layer      int
	start, end time.Duration // offsets from spanLog.base
}

// spanLog records boundary spans in memory while on; they are written out
// when the run ends. A nil *spanLog records nothing and wraps nothing.
type spanLog struct {
	base   time.Time
	on     atomic.Bool
	active atomic.Int64 // traced handler calls still running
	mu     sync.Mutex
	spans  []span
}

// stop turns recording off, waits for the traced handler calls still
// running (a client can read its last byte before the handler returns),
// and returns the spans recorded.
func (l *spanLog) stop() []span {
	l.on.Store(false)
	for l.active.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.spans)
}

// wrap times h for requests carrying the benchmark's request ID.
func (l *spanLog) wrap(layer int, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		l.active.Add(1)
		defer l.active.Add(-1)
		start := time.Since(l.base)
		h.ServeHTTP(w, r)
		end := time.Since(l.base)
		id, err := strconv.Atoi(r.Header.Get(benchHeader))
		if err != nil {
			return // health probes carry no request ID
		}
		l.mu.Lock()
		l.spans = append(l.spans, span{id: id, layer: layer, start: start, end: end})
		l.mu.Unlock()
	})
}

// writeSpans dumps spans as NDJSON, one object per span, after a host line
// and the client spans taken from the samples. spanBase and sampleBase are
// the instants the two sets of offsets count from.
func writeSpans(path, host string, spans []span, spanBase time.Time, samples []*sample, sampleBase time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"host\":%q}\n", host)
	shift := sampleBase.Sub(spanBase)
	for _, s := range samples {
		fmt.Fprintf(w, "{\"id\":%d,\"layer\":\"client\",\"class\":%q,\"start_ns\":%d,\"end_ns\":%d,\"status\":%d}\n",
			s.idx, s.class, int64(s.start+shift), int64(s.end+shift), s.status)
	}
	for _, sp := range spans {
		layer := "router"
		if sp.layer >= layerReplica0 {
			layer = replicaNames[sp.layer-layerReplica0]
		}
		fmt.Fprintf(w, "{\"id\":%d,\"layer\":%q,\"start_ns\":%d,\"end_ns\":%d}\n", sp.id, layer, int64(sp.start), int64(sp.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
