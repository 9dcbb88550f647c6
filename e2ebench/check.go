package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hotspot"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/tstore"
)

// checker validates every reply as it arrives (well formed: status 200, all
// blocks present, finite values, acknowledged row counts) on its own
// goroutine, and keeps a seeded sample of replies that finish recomputes
// in-process, bit for bit, once the load has stopped.
type checker struct {
	g  *generator
	in chan checkJob

	mu       sync.Mutex
	acks     map[int]ack // transient idx -> its acknowledged write
	queries  []*queryCheck
	notFound []checkJob // queries answered 404 unknown series
	sampled  []checkJob
	perCls   [nClasses]int // sampled so far, per class

	done chan struct{}
	lm   *modelCache
}

type checkJob struct {
	req   *request
	s     *sample
	reply []byte
}

type ack struct {
	rows int64         // persisted_rows
	at   time.Duration // when the acknowledging reply had been read
}

type queryCheck struct {
	req  *request
	s    *sample
	rows int64 // rows (raw) or summed bucket counts (downsampled) returned
}

// sampledPerClass caps the in-process recomputes per class and run;
// sampleEvery picks about one request in that many.
const (
	sampledPerClass = 24
	sampleEvery     = 61
)

func newChecker(g *generator) *checker {
	// The queue decouples parsing from the senders; it is large enough that
	// a burst of replies never blocks a sender behind the parse of another.
	c := &checker{g: g, in: make(chan checkJob, 4096), acks: make(map[int]ack), done: make(chan struct{}), lm: newModelCache()}
	go c.loop()
	return c
}

func (c *checker) submit(req *request, s *sample, reply []byte) { c.in <- checkJob{req, s, reply} }

func (c *checker) loop() {
	defer close(c.done)
	for job := range c.in {
		c.check(job)
	}
}

// finish stops the checker, settles every query against the acknowledged
// writes and runs the sampled recomputes. It returns how many recomputes
// ran.
func (c *checker) finish() int {
	close(c.in)
	<-c.done
	for _, q := range c.queries {
		c.settleQuery(q)
	}
	for _, job := range c.notFound {
		// The 404 is the read-your-writes defect only when the run it reads
		// was acknowledged before the query was sent.
		if a, ok := c.acks[job.req.target]; ok && a.at <= job.s.start {
			job.s.misrouted = true
		} else {
			job.s.why = "query 404 unknown series: its run was not acknowledged before the query was sent"
		}
	}
	for _, job := range c.sampled {
		if job.s.failed {
			continue
		}
		if err := c.recompute(job); err != nil {
			wrong(job.s, "recompute: "+err.Error())
		}
	}
	return len(c.sampled)
}

func fail(s *sample, why string) {
	if !s.failed {
		s.failed, s.why = true, why
	}
}

// wrong marks a 200 reply whose content failed a check: a failure that
// also makes the run incorrect.
func wrong(s *sample, why string) {
	if !s.failed {
		s.failed, s.wrong, s.why = true, true, why
	}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// completeMap reports whether m holds exactly the names, all finite.
func completeMap(m map[string]float64, names []string) bool {
	if len(m) != len(names) {
		return false
	}
	for _, n := range names {
		v, ok := m[n]
		if !ok || !finite(v) {
			return false
		}
	}
	return true
}

func (c *checker) check(job checkJob) {
	s, req := job.s, job.req
	if s.failed {
		return
	}
	if s.status != 200 {
		fail(s, fmt.Sprintf("status %d: %s", s.status, bytes.TrimSpace(job.reply)))
		if req.class == classQuery && s.status == 404 && bytes.Contains(job.reply, []byte("unknown series")) {
			c.mu.Lock()
			c.notFound = append(c.notFound, job)
			c.mu.Unlock()
		}
		return
	}
	// A 200 whose body is not even complete JSON was cut short in transit: a
	// failed request. A complete reply with the wrong content is a wrong
	// answer.
	if !complete(req.class, job.reply) {
		fail(s, fmt.Sprintf("status 200 with an incomplete body (%d bytes)", len(job.reply)))
		return
	}
	if err := c.wellFormed(job); err != nil {
		wrong(s, err.Error())
		return
	}
	if req.idx >= 0 && uint64(req.idx)*0x9e3779b97f4a7c15>>32%sampleEvery == c.g.seed%sampleEvery {
		c.mu.Lock()
		if c.perCls[req.class] < sampledPerClass {
			c.perCls[req.class]++
			c.sampled = append(c.sampled, job)
		}
		c.mu.Unlock()
	}
}

// complete reports whether a reply is whole: valid JSON, or for the NDJSON
// scenario stream, valid lines ending in the trailer.
func complete(c class, reply []byte) bool {
	if c != classScenario {
		return json.Valid(reply)
	}
	lines := bytes.Split(bytes.TrimSpace(reply), []byte("\n"))
	for _, l := range lines {
		if !json.Valid(l) {
			return false
		}
	}
	return bytes.Contains(lines[len(lines)-1], []byte(`"done"`))
}

func (c *checker) wellFormed(job checkJob) error {
	req := job.req
	var names []string
	if req.class != classScenario {
		names = c.g.names(req.spec)
	}
	switch req.class {
	case classSteady:
		var r service.SteadyResponse
		if err := json.Unmarshal(job.reply, &r); err != nil {
			return err
		}
		if !completeMap(r.BlockC, names) || !finite(r.HottestC, r.SpreadC) || r.BlockC[r.HottestBlock] != r.HottestC {
			return fmt.Errorf("steady reply: blocks missing, non-finite or inconsistent")
		}
	case classTransient:
		var r service.TransientResponse
		if err := json.Unmarshal(job.reply, &r); err != nil {
			return err
		}
		if err := wellFormedTransient(&r, names, len(req.trace.Rows), req.maxPoints); err != nil {
			return err
		}
		want := int64(len(req.trace.Rows)+1) * int64(len(names))
		if req.run != "" && (r.Persist != req.run || r.PersistedRows != want) {
			return fmt.Errorf("transient %s: persisted %d rows (pending %v), want %d", req.run, r.PersistedRows, r.PersistPending, want)
		}
		c.mu.Lock()
		c.acks[req.idx] = ack{rows: r.PersistedRows, at: job.s.end}
		c.mu.Unlock()
	case classSweep:
		var r service.SweepResponse
		if err := json.Unmarshal(job.reply, &r); err != nil {
			return err
		}
		if len(r.Results) != len(req.sweep) {
			return fmt.Errorf("sweep: %d results for %d scenarios", len(r.Results), len(req.sweep))
		}
		for k, res := range r.Results {
			if res.Error != "" || !completeMap(res.BlockC, names) || !completeMap(res.PeakC, names) {
				return fmt.Errorf("sweep scenario %d: %q, blocks missing or non-finite", k, res.Error)
			}
		}
	case classScenario:
		if _, err := parseScenarioStream(job.reply, req.run != ""); err != nil {
			return err
		}
	case classQuery:
		n, err := queryRows(job.reply, req)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.queries = append(c.queries, &queryCheck{req: req, s: job.s, rows: n})
		c.mu.Unlock()
	}
	return nil
}

func wellFormedTransient(r *service.TransientResponse, names []string, rows, maxPoints int) error {
	if !reflect.DeepEqual(r.Blocks, names) || r.Steps != rows || len(r.Points) == 0 || len(r.Points) > maxPoints {
		return fmt.Errorf("transient reply: %d blocks, %d steps, %d points", len(r.Blocks), r.Steps, len(r.Points))
	}
	for _, p := range r.Points {
		if len(p.BlockC) != len(names) || !finite(p.BlockC...) || !finite(p.TimeS) {
			return fmt.Errorf("transient reply: malformed point at t=%g", p.TimeS)
		}
	}
	if !completeMap(r.FinalC, names) || !completeMap(r.PeakC, names) {
		return fmt.Errorf("transient reply: final/peak blocks missing or non-finite")
	}
	return nil
}

// scenarioStream is a decoded /v1/scenario/stream reply.
type scenarioStream struct {
	header  service.ScenarioHeaderJSON
	cells   []service.ScenarioCellJSON
	trailer service.ScenarioTrailerJSON
}

// parseScenarioStream decodes a reply and requires every cell, the trailer
// and, when persisted, stored rows.
func parseScenarioStream(reply []byte, persisted bool) (*scenarioStream, error) {
	var st scenarioStream
	sc := bufio.NewScanner(bytes.NewReader(reply))
	sc.Buffer(nil, 1<<20)
	for line := 0; sc.Scan(); line++ {
		var err error
		switch {
		case line == 0:
			err = json.Unmarshal(sc.Bytes(), &st.header)
		case bytes.Contains(sc.Bytes(), []byte(`"done"`)):
			err = json.Unmarshal(sc.Bytes(), &st.trailer)
		default:
			var cell service.ScenarioCellJSON
			err = json.Unmarshal(sc.Bytes(), &cell)
			st.cells = append(st.cells, cell)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario stream line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !st.trailer.Done || persisted != (st.trailer.PersistedRows > 0) || len(st.cells) != st.header.Cells || st.header.Cells == 0 {
		return nil, fmt.Errorf("scenario stream: %d of %d cells, done %v, %d rows persisted",
			len(st.cells), st.header.Cells, st.trailer.Done, st.trailer.PersistedRows)
	}
	for _, cell := range st.cells {
		if cell.Error != "" || cell.Metrics == nil || !finite(cell.Metrics.DutyCycle, cell.Metrics.PeakC) {
			return nil, fmt.Errorf("scenario cell %d: %q", cell.Cell, cell.Error)
		}
	}
	return &st, nil
}

// queryRows validates a /v1/query reply and returns the rows it covers:
// raw rows, or the summed counts of its buckets.
func queryRows(reply []byte, req *request) (int64, error) {
	var r service.QueryResponse
	if err := json.Unmarshal(reply, &r); err != nil {
		return 0, err
	}
	if r.Truncated || r.DownsampleNs != req.downsample || !strings.HasSuffix(r.Series, "/"+req.block) {
		return 0, fmt.Errorf("query reply: series %q, downsample %d, truncated %v", r.Series, r.DownsampleNs, r.Truncated)
	}
	if req.downsample == 0 {
		for i, row := range r.Rows {
			if !finite(row.V) || i > 0 && row.TNs <= r.Rows[i-1].TNs {
				return 0, fmt.Errorf("query reply: row %d out of order or non-finite", i)
			}
		}
		return int64(len(r.Rows)), nil
	}
	var n int64
	for i, b := range r.Buckets {
		if b.Count <= 0 || !finite(b.Min, b.Max, b.Sum) || i > 0 && b.StartNs <= r.Buckets[i-1].StartNs {
			return 0, fmt.Errorf("query reply: bucket %d malformed", i)
		}
		n += b.Count
	}
	return n, nil
}

// settleQuery requires a query to return exactly the rows per series its
// run acknowledged (persisted_rows over the block count), and that the
// acknowledgement came before the query was sent.
func (c *checker) settleQuery(q *queryCheck) {
	s, req := q.s, q.req
	if s.failed {
		return
	}
	a, ok := c.acks[req.target]
	if !ok || a.at > s.start {
		wrong(s, fmt.Sprintf("query of %s sent before its write was acknowledged", runName(req.target)))
		return
	}
	perSeries := a.rows / int64(len(c.g.names(req.spec)))
	want := perSeries
	if req.last >= 0 {
		want = min(int64(req.last), perSeries-1) - int64(req.first) + 1
	}
	if q.rows != want {
		wrong(s, fmt.Sprintf("query of %s/%s: %d rows, run acknowledged %d per series, %d in range", runName(req.target), req.block, q.rows, perSeries, want))
	}
}

// modelCache compiles the checker's own models, keyed by fingerprint.
type modelCache struct {
	mu sync.Mutex
	m  map[string]*hotspot.Model
}

func newModelCache() *modelCache { return &modelCache{m: make(map[string]*hotspot.Model)} }

// buildConfig is the service's ModelSpec resolution for the specs the
// workloads generate: named floorplan, core.BuildConfig, 45 °C ambient.
func buildConfig(g *generator, sp service.ModelSpec) (hotspot.Config, error) {
	cfg, err := core.BuildConfig(g.fps[sp.Floorplan], core.PackageSpec{
		Kind: sp.Package, Rconv: sp.Rconv, Direction: sp.Direction, Secondary: sp.Secondary, AmbientK: 45 + 273.15,
	})
	if err != nil {
		return cfg, err
	}
	// The recompute is only meaningful against the model the replica ran.
	if fp, err := sp.Fingerprint(); err != nil || fp != cfg.Fingerprint() {
		return cfg, fmt.Errorf("model %+v: local config fingerprint differs from the service's (%v)", sp, err)
	}
	return cfg, nil
}

func (mc *modelCache) get(g *generator, sp service.ModelSpec) (*hotspot.Model, error) {
	cfg, err := buildConfig(g, sp)
	if err != nil {
		return nil, err
	}
	key := cfg.Fingerprint()
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if m := mc.m[key]; m != nil {
		return m, nil
	}
	m, err := hotspot.New(cfg)
	if err == nil {
		mc.m[key] = m
	}
	return m, err
}

// recompute redoes a sampled request in-process through hotspot (and
// scenario) and requires the reply to match bit for bit.
func (c *checker) recompute(job checkJob) error {
	req := job.req
	switch req.class {
	case classScenario:
		return c.recomputeScenario(job)
	case classQuery:
		return c.recomputeQuery(job)
	}
	m, err := c.lm.get(c.g, req.spec)
	if err != nil {
		return err
	}
	names := m.Floorplan().Names()
	switch req.class {
	case classSteady:
		var r service.SteadyResponse
		if err := json.Unmarshal(job.reply, &r); err != nil {
			return err
		}
		vec, err := m.PowerVector(req.power)
		if err != nil {
			return err
		}
		return sameMap("steady block_c", r.BlockC, names, m.NewSession().SteadyState(vec).BlocksC())
	case classTransient:
		var r service.TransientResponse
		if err := json.Unmarshal(job.reply, &r); err != nil {
			return err
		}
		pts, err := replay(m, req.trace)
		if err != nil {
			return err
		}
		final, peak := finalPeak(pts)
		if err := sameMap("transient final_c", r.FinalC, names, final); err != nil {
			return err
		}
		if err := sameMap("transient peak_c", r.PeakC, names, peak); err != nil {
			return err
		}
		for k, p := range stride(pts, req.maxPoints) {
			if p.Time != r.Points[k].TimeS || !slicesEqual(p.BlockC, r.Points[k].BlockC) {
				return fmt.Errorf("transient point %d differs", k)
			}
		}
	case classSweep:
		var r service.SweepResponse
		if err := json.Unmarshal(job.reply, &r); err != nil {
			return err
		}
		for k, sc := range req.sweep {
			pts, err := replay(m, sc.Trace)
			if err != nil {
				return err
			}
			final, peak := finalPeak(pts)
			if err := sameMap(fmt.Sprintf("sweep %d block_c", k), r.Results[k].BlockC, names, final); err != nil {
				return err
			}
			if err := sameMap(fmt.Sprintf("sweep %d peak_c", k), r.Results[k].PeakC, names, peak); err != nil {
				return err
			}
		}
	}
	return nil
}

func replay(m *hotspot.Model, ts *service.TraceSpec) ([]hotspot.TracePoint, error) {
	tr, err := powerTrace(ts)
	if err != nil {
		return nil, err
	}
	return m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
}

func finalPeak(pts []hotspot.TracePoint) (final, peak []float64) {
	final = pts[len(pts)-1].BlockC
	peak = append([]float64(nil), pts[0].BlockC...)
	for _, p := range pts {
		for i, v := range p.BlockC {
			peak[i] = max(peak[i], v)
		}
	}
	return final, peak
}

// stride keeps at most maxPoints points evenly, always keeping the last:
// the documented max_points contract of /v1/transient.
func stride(pts []hotspot.TracePoint, maxPoints int) []hotspot.TracePoint {
	if maxPoints <= 1 || len(pts) <= maxPoints {
		if maxPoints == 1 {
			return pts[len(pts)-1:]
		}
		return pts
	}
	keep := make([]hotspot.TracePoint, maxPoints)
	step := float64(len(pts)-1) / float64(maxPoints-1)
	for i := range keep {
		keep[i] = pts[int(float64(i)*step+0.5)]
	}
	keep[maxPoints-1] = pts[len(pts)-1]
	return keep
}

func slicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameMap(what string, got map[string]float64, names []string, want []float64) error {
	for i, n := range names {
		if math.Float64bits(got[n]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%s] = %v, in-process %v", what, n, got[n], want[i])
		}
	}
	return nil
}

func (c *checker) recomputeScenario(job checkJob) error {
	st, err := parseScenarioStream(job.reply, job.req.run != "")
	if err != nil {
		return err
	}
	spec, err := scenario.ParseSpec(bytes.NewReader(job.req.scenario))
	if err != nil {
		return err
	}
	comp, err := scenario.Compile(spec, scenario.Options{})
	if err != nil {
		return err
	}
	local := comp.RunGrid(nil, 1, nil)
	for _, cell := range st.cells {
		if cell.Cell < 0 || cell.Cell >= len(local) || local[cell.Cell].Err != nil ||
			!reflect.DeepEqual(*cell.Metrics, local[cell.Cell].Metrics) {
			return fmt.Errorf("scenario cell %d metrics differ from the in-process grid", cell.Cell)
		}
	}
	return nil
}

// recomputeQuery replays the transient the query read and requires the
// rows (or buckets, folded in time order) to match the replay bit for bit.
func (c *checker) recomputeQuery(job checkJob) error {
	req := job.req
	var w *request
	if req.target < 0 {
		w = c.g.preload(-req.target - 1)
	} else {
		w = c.g.at(req.target)
	}
	m, err := c.lm.get(c.g, w.spec)
	if err != nil {
		return err
	}
	pts, err := replay(m, w.trace)
	if err != nil {
		return err
	}
	b := m.Floorplan().Index(req.block)
	var r service.QueryResponse
	if err := json.Unmarshal(job.reply, &r); err != nil {
		return err
	}
	if req.downsample == 0 {
		if req.last >= 0 {
			pts = pts[req.first : req.last+1]
		}
		if len(r.Rows) != len(pts) {
			return fmt.Errorf("query: %d rows, replay has %d", len(r.Rows), len(pts))
		}
		for i, p := range pts {
			if r.Rows[i].TNs != tstore.Nanos(p.Time) || math.Float64bits(r.Rows[i].V) != math.Float64bits(p.BlockC[b]) {
				return fmt.Errorf("query row %d differs from the replay", i)
			}
		}
		return nil
	}
	var want []trace.TelemetryBucket
	for _, p := range pts {
		t, v := tstore.Nanos(p.Time), p.BlockC[b]
		start := t - t%req.downsample
		if n := len(want); n == 0 || want[n-1].StartNs != start {
			want = append(want, trace.TelemetryBucket{StartNs: start, Min: v, Max: v})
		}
		bk := &want[len(want)-1]
		bk.Count++
		bk.Min, bk.Max, bk.Sum = min(bk.Min, v), max(bk.Max, v), bk.Sum+v
	}
	if len(r.Buckets) != len(want) {
		return fmt.Errorf("query: %d buckets, replay folds %d", len(r.Buckets), len(want))
	}
	for i, bk := range want {
		got := r.Buckets[i]
		if got.StartNs != bk.StartNs || got.Count != bk.Count || got.Min != bk.Min || got.Max != bk.Max ||
			math.Float64bits(got.Sum) != math.Float64bits(bk.Sum) {
			return fmt.Errorf("query bucket %d differs from the replay fold", i)
		}
	}
	return nil
}
