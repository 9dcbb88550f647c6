package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request as the generator saw it. Times are offsets from the
// loadgen's base instant.
type sample struct {
	idx        int
	class      class
	due        time.Duration // fixed-rate phase: when the schedule said to send
	start, end time.Duration // send, and last response byte read
	late       time.Duration // timer lateness of the send; -1 when the send was already overdue
	status     int
	failed     bool   // transport error, non-200, or a wrong answer (set by the checker)
	wrong      bool   // a 200 reply that failed a check
	misrouted  bool   // 404 "unknown series" on a query
	why        string // first failure reason, for the report
}

// latency is the request's time in the system. In the fixed-rate phase it
// runs from the due time, so a stalled server cannot hide its backlog
// (coordinated omission); in the closed loop, from the send.
func (s *sample) latency(open bool) time.Duration {
	if open {
		return s.end - s.due
	}
	return s.end - s.start
}

type loadgen struct {
	rg        *rig
	g         *generator
	chk       *checker
	base      time.Time
	conns     int
	completed atomic.Int64 // requests sent and read back
}

// send issues one request, reads and closes the whole body, and hands the
// reply to the checker.
func (lg *loadgen) send(req *request, s *sample) {
	s.idx, s.class = req.idx, req.class
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hreq, err := http.NewRequest(req.method, lg.rg.url+req.path, body)
	if err != nil {
		panic(err) // generated paths are well-formed
	}
	hreq.Header.Set(benchHeader, strconv.Itoa(req.idx))
	if req.body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	s.start = time.Since(lg.base)
	resp, err := lg.rg.client.Do(hreq)
	var reply []byte
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.end = time.Since(lg.base)
	if err != nil {
		s.failed, s.why = true, "transport: "+err.Error()
	}
	lg.completed.Add(1)
	lg.chk.submit(req, s, reply)
}

// sleepFor blocks the calling thread in nanosleep. The runtime's own timers
// park an idle process in epoll with millisecond resolution, which made
// sends run about 0.5 ms late; a blocking nanosleep wakes within tens of
// microseconds.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop sends requests first..first+n-1 on a fixed schedule of rate per
// second over lg.conns connections and returns their samples, indexed by
// request.
func (lg *loadgen) openLoop(first, n int, rate float64) []*sample {
	samples := make([]*sample, n)
	// Generation runs ahead of the schedule by up to this many requests so
	// building a large body never delays a due send.
	reqs := make(chan *request, 256)
	go func() {
		defer close(reqs)
		for i := range n {
			reqs <- lg.g.at(first + i)
		}
	}()
	start := time.Since(lg.base) + 50*time.Millisecond
	var wg sync.WaitGroup
	for range lg.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range reqs {
				s := &sample{}
				samples[req.idx-first] = s
				s.due = start + time.Duration(float64(req.idx-first)/rate*1e9)
				if wait := s.due - time.Since(lg.base); wait > 0 {
					sleepFor(wait)
					s.late = time.Since(lg.base) - s.due
				} else {
					s.late = -1
				}
				lg.send(req, s)
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop runs lg.conns clients back to back, each sending its next
// request when the previous one completes, from index first until d has
// passed. It returns the samples and the phase's wall time.
func (lg *loadgen) closedLoop(first int, d time.Duration) ([]*sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]*sample, lg.conns)
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for w := range lg.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := lg.g.at(int(next.Add(1) - 1))
				s := &sample{}
				per[w] = append(per[w], s)
				lg.send(req, s)
			}
		}()
	}
	wg.Wait()
	return slices.Concat(per...), time.Since(t0)
}

// meter samples HeapInuse (heap objects plus unused span space) every
// 20 ms for the peak of each whole second, and once a second the process
// CPU time and the requests completed, until closed.
type meter struct {
	peaks     []float64 // bytes
	cpu       []time.Duration
	completed []int64
	stop      chan struct{}
	done      chan struct{}
}

func startMeter(completed *atomic.Int64) *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	go func() {
		defer close(m.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		for tick := 0; ; tick++ {
			metrics.Read(ms)
			peak = max(peak, ms[0].Value.Uint64()+ms[1].Value.Uint64())
			if tick%50 == 0 {
				if tick > 0 {
					m.peaks = append(m.peaks, float64(peak))
					peak = 0
				}
				m.cpu = append(m.cpu, cpuTime())
				m.completed = append(m.completed, completed.Load())
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// close stops the meter and returns, for each whole second, the peak
// HeapInuse (bytes) and the CPU time per completed request (ms).
func (m *meter) close() ([]float64, []float64) {
	close(m.stop)
	<-m.done
	var perReq []float64
	for i := 1; i < len(m.cpu); i++ {
		if n := m.completed[i] - m.completed[i-1]; n > 0 {
			perReq = append(perReq, float64(m.cpu[i]-m.cpu[i-1])/1e6/float64(n))
		}
	}
	return m.peaks, perReq
}

// percentile returns the p-th (0..100) nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// beyond is how many samples lie above the p-th percentile of n; a
// percentile is reported only with at least 10 beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
