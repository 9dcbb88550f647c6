// Command e2ebench is the repository's end-to-end benchmark: one process
// starts the fleet router in front of four service replicas (each with its
// own telemetry store), drives it through the router with a seeded request
// mix, checks every reply, and prints each metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run of the same seed and workload gives the per-layer
// breakdown. README.md in this directory documents the workloads, the
// metrics and what each layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
)

// setUps is how many times an untraced run starts the fleet and warms it
// up; setup_s is the median.
const setUps = 5

func main() {
	name := flag.String("workload", "", "workload: warm-steady, warm-replay, model-churn or replay-telemetry")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for stores and span files")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if w.name == "replay-telemetry" {
		if err := checkFileLimit(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
	r := &run{w: w, g: newGenerator(w, *seed), seconds: float64(*seconds), conns: runtime.NumCPU(),
		dir: filepath.Join(*dir, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid())), host: hostFingerprint()}
	var res *result
	if *traced == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, r); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type run struct {
	w       workload
	g       *generator
	seconds float64
	conns   int
	dir     string
	host    string
}

// metric is one reported number. n is the sample count behind it (0 when
// it is a count or a ratio of totals).
type metric struct {
	name, unit string
	value      float64
	n          int
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric // the JSON line's metrics
	notes             []string // extra report lines
}

func (res *result) add(name, unit string, v float64, n int) {
	res.metrics = append(res.metrics, metric{name, unit, v, n})
}

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// print writes the report and, when every metric is a finite number, the
// JSON result line.
func (res *result) print(out io.Writer, r *run) error {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "# e2ebench workload=%s seed=%d seconds=%g host: %s\n", r.w.name, r.g.seed, r.seconds, r.host)
	for _, m := range res.metrics {
		if m.n > 0 {
			fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.name] = jm{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	if err != nil {
		return fmt.Errorf("no result: a metric has no finite value (no samples?): %w", err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// minOpenFiles is what one replay-telemetry run needs: every tstore series
// holds an open file, and a run persists about 10k series.
const minOpenFiles = 16384

// checkFileLimit fails early, with the reason, where the process may not
// open enough files for replay-telemetry (the Go runtime has already raised
// the soft limit to the hard one).
func checkFileLimit() error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return err
	}
	if lim.Cur < minOpenFiles {
		return fmt.Errorf("replay-telemetry needs %d open files (one per stored series), the limit is %d", minOpenFiles, lim.Cur)
	}
	return nil
}

// hostFingerprint names the CPU model, nproc, GOMAXPROCS and Go version.
func hostFingerprint() string {
	cpu := "unknown cpu"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// setUp starts a fleet and runs the workload's warm-up: it primes every
// replica's model cache with the workload's models (all but model-churn, so
// the hit rate does not depend on which of a key's owners the bounded-load
// ring picks), sends warm-up requests through the router, and persists the
// runs replay-telemetry reads from its first query on. It returns the
// fleet, its checker and the set-up time.
func (r *run) setUp(k int, spans *spanLog) (*loadgen, time.Duration, error) {
	t0 := time.Now()
	rg, err := startRig(filepath.Join(r.dir, fmt.Sprintf("fleet%d", k)), r.conns, spans)
	if err != nil {
		return nil, 0, err
	}
	lg := &loadgen{rg: rg, g: r.g, chk: newChecker(r.g), base: t0, conns: r.conns}
	fail := func(err error) (*loadgen, time.Duration, error) {
		lg.chk.finish()
		rg.close()
		return nil, 0, err
	}
	if r.w.name != "model-churn" {
		if err := prime(rg.harness, r.g); err != nil {
			return fail(err)
		}
	}
	var warm []*request
	switch r.w.name {
	case "warm-steady":
		for k := range 400 {
			warm = append(warm, r.g.warm(k))
		}
	case "model-churn":
		for k := range 160 {
			warm = append(warm, r.g.warm(k))
		}
	case "warm-replay":
		for k := range 24 {
			warm = append(warm, r.g.warm(k))
		}
	case "replay-telemetry":
		for k := range preloadRuns {
			warm = append(warm, r.g.preload(k))
		}
	}
	// Only the status is read here: the checker may still be writing the
	// samples' verdicts.
	for _, s := range lg.batch(warm) {
		if s.status != http.StatusOK {
			return fail(fmt.Errorf("warm-up request %d failed with status %d", s.idx, s.status))
		}
	}
	return lg, time.Since(t0), nil
}

// prime compiles each of the workload's models on every replica by sending
// a steady solve straight to it. Set-up only: measured traffic always goes
// through the router.
func prime(h *fleet.Harness, g *generator) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	for i := range replicaNames {
		for _, sp := range g.specs {
			req := g.steady(g.rng(streamWarm, -1), 0, sp, builtinTotalW)
			resp, err := client.Post("http://"+h.Replica(i).Addr()+req.path, "application/json", strings.NewReader(string(req.body)))
			if err != nil {
				return fmt.Errorf("prime %s: %w", replicaNames[i], err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("prime %s: status %d", replicaNames[i], resp.StatusCode)
			}
		}
	}
	return nil
}

// batch sends reqs over lg.conns clients back to back.
func (lg *loadgen) batch(reqs []*request) []*sample {
	ch := make(chan int)
	out := make([]*sample, len(reqs))
	var wg sync.WaitGroup
	for range lg.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				out[i] = &sample{}
				lg.send(reqs[i], out[i])
			}
		}()
	}
	for i := range reqs {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

// setUpTimed runs set-up setUps times and keeps the last fleet.
func (r *run) setUpTimed() (*loadgen, float64, error) {
	var times []float64
	var lg *loadgen
	for k := range setUps {
		if lg != nil {
			lg.chk.finish()
			lg.rg.close()
		}
		var d time.Duration
		var err error
		if lg, d, err = r.setUp(k, nil); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return lg, median(times), nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// untraced is the end-to-end run: set up, a fixed-rate phase, a closed
// loop, then the checks.
func (r *run) untraced() (*result, error) {
	defer os.RemoveAll(r.dir)
	lg, setupS, err := r.setUpTimed()
	if err != nil {
		return nil, err
	}
	defer lg.rg.close()
	openS := r.seconds * r.w.openShare
	n := int(openS * r.w.rate)

	// Both phases start from a collected heap, so set-up garbage is not
	// charged to whichever phase its collection happens to land in.
	runtime.GC()
	openMeter := startMeter(&lg.completed)
	cpu0, m0, gc0 := cpuTime(), mallocs(), numGC()
	open := lg.openLoop(0, n, r.w.rate)
	cpu1, m1, gc1 := cpuTime(), mallocs(), numGC()
	// The heap peaks are taken at the fixed offered load: the closed loop's
	// request count, and with it the state the checker holds, follows the
	// host's speed.
	peaks, cpuPerReq := openMeter.close()
	runtime.GC()
	closed, wall := lg.closedLoop(n, time.Duration((r.seconds-openS)*float64(time.Second)))
	recomputes := lg.chk.finish()

	res := &result{}
	res.add("setup_s", "s", setupS, setUps)
	r.openLatencies(open, res)
	ok := 0
	for _, s := range closed {
		if !s.failed {
			ok++
		}
	}
	res.note("throughput_rps=%.1f (successful closed-loop replies per second over %.1fs, n=%d)", float64(ok)/wall.Seconds(), wall.Seconds(), len(closed))
	res.add("cpu_ms_per_req", "ms", median(cpuPerReq), len(cpuPerReq))
	res.note("cpu_ms_per_req is the median of %d one-second windows; whole-phase mean %.4f", len(cpuPerReq), float64(cpu1-cpu0)/1e6/float64(len(open)))
	res.add("allocs_per_req", "count", float64(m1-m0)/float64(len(open)), len(open))
	res.add("heap_peak_mb", "MB", median(peaks)/(1<<20), len(peaks))
	res.note("heap_peak_mb is the median of %d one-second HeapInuse peaks; whole-phase peak %.1f MB", len(peaks), slices.Max(peaks)/(1<<20))
	r.account(res, lg, recomputes, open, closed)
	res.note("gc: %d collections in the fixed-rate phase", gc1-gc0)
	return res, nil
}

// openLatencies notes the latency of the successful fixed-rate requests:
// p50_ms as the median over the phase's seconds of each second's p50 (a
// burst of slowness on the shared host then moves the seconds it hits, not
// the run) and over the whole phase, p99_ms, and the per-class percentiles.
// None is in the JSON line: on the reference host their spread between runs
// of the same code exceeds the largest bound a benchmark may set (README).
func (r *run) openLatencies(open []*sample, res *result) {
	all, per := latencies(open)
	bySecond := map[time.Duration][]float64{}
	for _, s := range open {
		if !s.failed {
			sec := s.due / time.Second
			bySecond[sec] = append(bySecond[sec], float64(s.latency(true))/1e6)
		}
	}
	var p50s []float64
	for _, v := range bySecond {
		slices.Sort(v)
		p50s = append(p50s, percentile(v, 50))
	}
	res.note("p50_ms=%.4f (median of %d one-second window p50s) whole-phase p50_ms=%.4f n=%d", median(p50s), len(p50s), percentile(all, 50), len(all))
	res.note("p99_ms=%.4f n=%d%s", percentile(all, 99), len(all), unresolved(len(all)))
	for c := range nClasses {
		if v := per[c]; len(v) > 0 {
			res.note("class %-9s p50_ms=%.4f p99_ms=%.4f n=%d%s", class(c), percentile(v, 50), percentile(v, 99), len(v), unresolved(len(v)))
		}
	}
	if r.w.name == "replay-telemetry" {
		persist := append(slices.Clone(per[classTransient]), per[classScenario]...)
		slices.Sort(persist)
		q := per[classQuery]
		res.note("persist_p50_ms=%.4f persist_p98_ms=%.4f persist_p99_ms=%.4f n=%d%s", percentile(persist, 50), percentile(persist, 98),
			percentile(persist, 99), len(persist), unresolved(len(persist)))
		res.note("query_p50_ms=%.4f query_p99_ms=%.4f n=%d%s", percentile(q, 50), percentile(q, 99), len(q), unresolved(len(q)))
	}
}

// unresolved flags a p99 over n samples that has fewer than ten beyond it.
func unresolved(n int) string {
	if beyond(n, 99) < 10 {
		return " (p99 unresolved: fewer than 10 samples beyond it)"
	}
	return ""
}

// latencies returns the sorted due-time latencies (ms) of the successful
// fixed-rate samples, overall and per class.
func latencies(open []*sample) ([]float64, [nClasses][]float64) {
	var all []float64
	var per [nClasses][]float64
	for _, s := range open {
		if s.failed {
			continue
		}
		v := float64(s.latency(true)) / 1e6
		all = append(all, v)
		per[s.class] = append(per[s.class], v)
	}
	slices.Sort(all)
	for c := range per {
		slices.Sort(per[c])
	}
	return all, per
}

// account fills attempted/failed/correct and the failure notes.
func (r *run) account(res *result, lg *loadgen, recomputes int, phases ...[]*sample) {
	res.correct = recomputes > 0
	reasons := map[string]int{}
	misrouted, queries := 0, 0
	for _, ph := range phases {
		for _, s := range ph {
			res.attempted++
			if s.class == classQuery {
				queries++
			}
			if !s.failed {
				continue
			}
			res.failed++
			if s.wrong {
				res.correct = false
			}
			if s.misrouted {
				misrouted++
			}
			why := s.why
			if len(why) > 90 {
				why = why[:90]
			}
			reasons[why]++
		}
	}
	res.note("failed_frac=%.6f (%d of %d attempted, both phases)", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	if queries > 0 {
		res.note("query 404 unknown series (read routed by series, write by model): %d of %d queries = %.4f",
			misrouted, queries, float64(misrouted)/float64(queries))
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int { return reasons[b] - reasons[a] })
	for i, k := range keys {
		if i == 5 {
			break
		}
		res.note("  failure x%d: %s", reasons[k], k)
	}
	if d := lg.rg.dials.Load(); d > int64(r.conns) {
		res.correct = false
		res.note("FAIL: %d connections dialled to the router, limit %d", d, r.conns)
	}
	if recomputes == 0 {
		res.note("FAIL: no reply was recomputed in-process")
	}
	res.note("checks: every reply validated; %d sampled replies recomputed in-process bit for bit; dials=%d", recomputes, lg.rg.dials.Load())
	late, overdue := lateness(phases[0])
	res.note("loadgen: late_p50_ms=%.4f late_p99_ms=%.4f n=%d, %d sends already overdue", percentile(late, 50), percentile(late, 99), len(late), overdue)
}
