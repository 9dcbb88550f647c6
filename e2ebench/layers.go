package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/hotspot"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/tstore"
)

// traced is the per-layer run: the same seed and workload as the untraced
// run, with an untraced and a traced fixed-rate pass back to back, each a
// quarter of --seconds (their p50 ratio is the tracing overhead), then the
// layer replay for the remaining half.
func (r *run) traced() (*result, error) {
	defer os.RemoveAll(r.dir)
	end := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	spans := &spanLog{base: time.Now()}
	lg, _, err := r.setUp(0, spans)
	if err != nil {
		return nil, err
	}
	defer lg.rg.close()
	n := int(r.seconds / 4 * r.w.rate)
	plain := lg.openLoop(0, n, r.w.rate)
	st0 := lg.rg.stats()
	spans.on.Store(true)
	tracedPass := lg.openLoop(n, n, r.w.rate)
	recorded := spans.stop()
	st := lg.rg.stats().minus(st0)
	recomputes := lg.chk.finish()

	res := &result{}
	r.account(res, lg, recomputes, plain, tracedPass)
	late, _ := lateness(tracedPass)
	res.add("loadgen.late_p50_ms", "ms", percentile(late, 50), len(late))
	res.add("loadgen.late_p99_ms", "ms", percentile(late, 99), len(late))
	res.add("loadgen.dials", "count", float64(lg.rg.dials.Load()), 0)
	spanMetrics(res, recorded, tracedPass)

	replayStart := time.Now()
	lr, err := replayLayers(r, tracedPass, filepath.Join(r.dir, "replay"), end)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	res.add("service.decode_us", "us", lr.mean("decode"), lr.n("decode"))
	res.add("service.encode_us", "us", lr.mean("encode"), lr.n("encode"))
	res.add("service.allocs_per_req", "count", lr.allocsPerReq, lr.reqs)
	res.add("fleet.route_us", "us", lr.mean("route"), lr.n("route"))
	res.add("admission.admit_us", "us", lr.mean("admit"), lr.n("admit"))
	res.add("admission.queued_events", "count", float64(st.queuedEvents), 0)
	res.note("admission: queue_wait_p99_ms=%.4f (replicas' /v1/stats, queued requests only; 0 when nothing queued)", st.queueWaitP99MS)
	lookups := st.hits + st.misses
	res.add("cache.hit_frac", "frac", ratio(float64(st.hits), float64(lookups)), int(lookups))
	res.add("cache.compiles", "count", float64(st.compiles), 0)
	res.add("cache.evictions", "count", float64(st.evictions), 0)
	res.add("cache.shared", "count", float64(st.shared), 0)
	res.add("cache.get_hit_us", "us", lr.mean("cache_hit"), lr.n("cache_hit"))
	comp := lr.sorted("compile")
	res.add("hotspot.compile_p50_ms", "ms", percentile(comp, 50)/1e3, len(comp))
	res.add("hotspot.compile_p99_ms", "ms", percentile(comp, 99)/1e3, len(comp))
	if beyond(len(comp), 99) < 10 {
		res.note("UNRESOLVED hotspot.compile_p99_ms: %d compiles leave fewer than 10 beyond p99", len(comp))
	}
	res.add("hotspot.nodes_mean", "count", lr.nodes, len(comp))
	res.add("hotspot.steady_us", "us", lr.mean("steady"), lr.n("steady"))
	res.add("hotspot.replay_us_per_row", "us", lr.total("replay")/float64(max(lr.replayRows, 1)), lr.replayRows)
	res.add("hotspot.sweep_ms", "ms", lr.mean("sweep")/1e3, lr.n("sweep"))
	res.add("solver.factorizations", "count", float64(st.factorizations), 0)
	res.add("solver.batch_width_mean", "count", ratio(float64(st.batchRHS), float64(st.batchSolves)), int(st.batchSolves))
	res.add("scenario.compile_ms", "ms", lr.mean("scenario_compile")/1e3, lr.n("scenario_compile"))
	res.add("scenario.cell_ms", "ms", lr.total("scenario_grid")/1e3/float64(max(lr.cells, 1)), lr.cells)
	res.add("tstore.append_ns_per_row", "ns", lr.total("append")*1e3/float64(max(lr.appendRows, 1)), lr.appendRows)
	res.add("tstore.flush_ms", "ms", lr.mean("flush")/1e3, lr.n("flush"))
	res.add("tstore.bytes_per_row", "B", lr.bytesPerRow, lr.appendRows)
	res.add("tstore.query_raw_us", "us", lr.mean("query_raw"), lr.n("query_raw"))
	res.add("tstore.query_rollup_us", "us", lr.mean("query_rollup"), lr.n("query_rollup"))
	for _, note := range lr.notes {
		res.note("%s", note)
	}
	res.note("layer replay: %d requests of the traced pass in %.1fs", lr.reqs, time.Since(replayStart).Seconds())

	// Send-to-reply times: tracing adds to each request's own service time,
	// which due-time latency buries under the phase's queueing noise.
	a, b := serviceTimes(plain), serviceTimes(tracedPass)
	res.add("trace.overhead_frac", "frac", percentile(b, 50)/percentile(a, 50)-1, len(b))
	res.note("trace: untraced send-to-reply p50_ms=%.4f (n=%d), traced p50_ms=%.4f (n=%d)", percentile(a, 50), len(a), percentile(b, 50), len(b))

	path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("spans-%s-seed%d.ndjson", r.w.name, r.g.seed))
	if err := writeSpans(path, r.host, recorded, spans.base, tracedPass, lg.base); err != nil {
		return nil, err
	}
	res.note("spans: %d boundary spans written to %s", len(recorded), path)
	return res, nil
}

// serviceTimes returns the sorted send-to-reply times (ms) of the
// successful samples.
func serviceTimes(samples []*sample) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.failed {
			out = append(out, float64(s.latency(false))/1e6)
		}
	}
	slices.Sort(out)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// lateness returns the sorted timer lateness (ms) of the sends that waited
// for their due time, and how many sends were already overdue.
func lateness(open []*sample) ([]float64, int) {
	var late []float64
	overdue := 0
	for _, s := range open {
		if s.late >= 0 {
			late = append(late, float64(s.late)/1e6)
		} else {
			overdue++
		}
	}
	slices.Sort(late)
	return late, overdue
}

// spanMetrics derives the fleet and service metrics from the boundary spans
// of the traced pass: per request, the router span, the replica spans (one
// per upstream attempt) and the client's own timing.
func spanMetrics(res *result, spans []span, samples []*sample) {
	type req struct {
		router   *span
		replicas []span
	}
	byID := make(map[int]*req)
	for i := range spans {
		sp := &spans[i]
		q := byID[sp.id]
		if q == nil {
			q = &req{}
			byID[sp.id] = q
		}
		if sp.layer == layerRouter {
			q.router = sp
		} else {
			q.replicas = append(q.replicas, *sp)
		}
	}
	var self, handler, clientSelf []float64
	perReplica := make([]int, len(replicaNames))
	attempts, routed := 0, 0
	for _, s := range samples {
		q := byID[s.idx]
		if q == nil || q.router == nil {
			continue
		}
		routed++
		attempts += len(q.replicas)
		covered := time.Duration(0)
		slices.SortFunc(q.replicas, func(a, b span) int { return int(a.start - b.start) })
		var end time.Duration
		for _, sp := range q.replicas {
			perReplica[sp.layer-layerReplica0]++
			handler = append(handler, float64(sp.end-sp.start)/1e3)
			start := max(sp.start, end)
			if sp.end > start {
				covered += sp.end - start
				end = sp.end
			}
		}
		self = append(self, float64(q.router.end-q.router.start-covered)/1e3)
		clientSelf = append(clientSelf, float64((s.end-s.start)-(q.router.end-q.router.start))/1e3)
	}
	slices.Sort(self)
	slices.Sort(handler)
	slices.Sort(clientSelf)
	res.add("fleet.self_p50_us", "us", percentile(self, 50), len(self))
	res.add("fleet.self_p99_us", "us", percentile(self, 99), len(self))
	res.add("fleet.attempts_per_req", "count", ratio(float64(attempts), float64(routed)), routed)
	res.add("fleet.replica_share_max", "frac", ratio(float64(slices.Max(perReplica)), float64(attempts)), attempts)
	res.add("service.handler_p50_us", "us", percentile(handler, 50), len(handler))
	res.add("service.handler_p99_us", "us", percentile(handler, 99), len(handler))
	misrouted, queries := 0, 0
	for _, s := range samples {
		if s.class == classQuery {
			queries++
			if s.misrouted {
				misrouted++
			}
		}
	}
	if queries > 0 {
		// A report line, not a JSON metric: only replay-telemetry queries.
		res.note("fleet.query_404_frac=%.4f n=%d (traced pass)", ratio(float64(misrouted), float64(queries)), queries)
	}
	res.note("spans: client self (client span minus router span) p50_us=%.1f n=%d; replica shares %v", percentile(clientSelf, 50), len(clientSelf), perReplica)
}

// layerReplay holds per-call timings (µs) of the replayed layer functions.
type layerReplay struct {
	us           map[string][]float64
	borrowing    bool // replaying borrowed inputs: skip serviceLayers
	reqs         int
	allocsPerReq float64
	nodes        float64
	replayRows   int
	appendRows   int
	cells        int
	bytesPerRow  float64
	notes        []string
}

func (lr *layerReplay) time(layer string, f func()) {
	t0 := time.Now()
	f()
	lr.record(layer, time.Since(t0))
}

// serviceLayers are the per-request layers every class passes through;
// borrowed requests do not count in them.
var serviceLayers = map[string]bool{"decode": true, "route": true, "admit": true, "cache_hit": true, "compile": true, "encode": true}

func (lr *layerReplay) record(layer string, d time.Duration) {
	if lr.borrowing && serviceLayers[layer] {
		return
	}
	lr.us[layer] = append(lr.us[layer], float64(d)/1e3)
}

func (lr *layerReplay) n(layer string) int { return len(lr.us[layer]) }

func (lr *layerReplay) total(layer string) float64 {
	t := 0.0
	for _, v := range lr.us[layer] {
		t += v
	}
	return t
}

func (lr *layerReplay) mean(layer string) float64 {
	return ratio(lr.total(layer), float64(lr.n(layer)))
}

func (lr *layerReplay) sorted(layer string) []float64 {
	s := slices.Clone(lr.us[layer])
	slices.Sort(s)
	return s
}

// replayInputs picks the requests the layer replay runs: up to 192 per
// class of the traced pass's own requests, and, for each class the workload
// never sends, 48 of the same seed's requests of the workload that does.
// Borrowed requests time only their own class's layers (solve, tstore,
// scenario), so every layer metric exists on every workload while the
// service-level means (decode, route, admit, cache, encode, allocations)
// stay the workload's own.
func replayInputs(r *run, traced []*sample) (own, borrowed []*request, donors []string) {
	count := [nClasses]int{}
	for _, s := range traced {
		if count[s.class] < 192 {
			count[s.class]++
			own = append(own, r.g.at(s.idx))
		}
	}
	for c := range nClasses {
		if count[c] > 0 {
			continue
		}
		donor := "replay-telemetry"
		if class(c) == classSteady {
			donor = "warm-steady"
		}
		w, _ := findWorkload(donor)
		g := newGenerator(w, r.g.seed)
		for i := 0; count[c] < 48; i++ {
			if g.classAt(i) == class(c) {
				count[c]++
				borrowed = append(borrowed, g.at(i))
			}
		}
		donors = append(donors, fmt.Sprintf("%s from %s", class(c), donor))
	}
	return own, borrowed, donors
}

// replayLayers replays requests in-process through the public functions of
// the layers below the replica handler, one timing per call, and reports
// allocations per request across those calls. Compiles repeat over the
// requests' models until 1010 samples (ten beyond p99), or until half the
// time left to the run's end has passed again.
func replayLayers(r *run, traced []*sample, dir string, end time.Time) (*layerReplay, error) {
	lr := &layerReplay{us: make(map[string][]float64)}
	own, borrowed, donors := replayInputs(r, traced)
	if len(donors) > 0 {
		lr.notes = append(lr.notes, "layer replay borrowed inputs: "+strings.Join(donors, ", "))
	}
	st, err := tstore.Open(dir, tstore.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	gens := map[string]*generator{}
	genFor := func(sp service.ModelSpec) *generator {
		for _, w := range workloads {
			g := gens[w.name]
			if g == nil {
				g = newGenerator(w, r.g.seed)
				gens[w.name] = g
			}
			if g.fps[sp.Floorplan] != nil {
				return g
			}
		}
		return nil
	}
	ring := fleet.NewRing(replicaNames, fleet.DefaultVnodes)
	ctl := admission.New(admission.Config{Slots: 4, QueueDepth: 64})
	cache := service.NewModelCache(32)
	model := func(sp service.ModelSpec) (*service.CachedModel, error) {
		cfg, err := buildConfig(genFor(sp), sp)
		if err != nil {
			return nil, err
		}
		var cm *service.CachedModel
		var hit bool
		t0 := time.Now()
		cm, hit, err = cache.Get(cfg.Fingerprint(), func() (*hotspot.Model, error) { return hotspot.New(cfg) })
		layer := "compile"
		if hit {
			layer = "cache_hit"
		}
		lr.record(layer, time.Since(t0))
		return cm, err
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	persisted := map[string]bool{}
	for _, req := range own {
		if err := lr.request(req, ring, ctl, model, st, persisted, r); err != nil {
			return nil, fmt.Errorf("%s request %d: %w", req.class, req.idx, err)
		}
	}
	runtime.ReadMemStats(&ms)
	lr.reqs = len(own)
	lr.allocsPerReq = float64(ms.Mallocs-allocs0) / float64(lr.reqs)
	// Borrowed requests get a store of their own: their run names are
	// another workload's, and may name runs this workload already wrote.
	bst, err := tstore.Open(dir+"-borrowed", tstore.Options{})
	if err != nil {
		return nil, err
	}
	defer bst.Close()
	lr.borrowing = true
	bpersisted := map[string]bool{}
	for _, req := range borrowed {
		if err := lr.request(req, ring, ctl, model, bst, bpersisted, r); err != nil {
			return nil, fmt.Errorf("borrowed %s request %d: %w", req.class, req.idx, err)
		}
	}
	lr.borrowing = false
	if s, b := st.Stats(), bst.Stats(); s.Rows+b.Rows > 0 {
		lr.bytesPerRow = float64(s.Bytes+b.Bytes) / float64(s.Rows+b.Rows)
	}

	// Compile samples beyond the cache misses above: hotspot.New over the
	// replayed requests' models in order, until 1010 samples or the budget.
	var specs []service.ModelSpec
	for _, req := range own {
		if req.spec.Floorplan != "" {
			specs = append(specs, req.spec)
		}
	}
	nodes, built := 0, 0
	hardEnd := end.Add(time.Until(end) / 2)
	for len(lr.us["compile"]) < 1010 && (built == 0 || time.Now().Before(hardEnd)) {
		sp := specs[built%len(specs)]
		built++
		cfg, err := buildConfig(genFor(sp), sp)
		if err != nil {
			return nil, err
		}
		var m *hotspot.Model
		lr.time("compile", func() { m, err = hotspot.New(cfg) })
		if err != nil {
			return nil, err
		}
		nodes += m.NodeCount()
	}
	lr.nodes = ratio(float64(nodes), float64(built))
	return lr, nil
}

// request replays one request's layer calls in service order: decode,
// route, admit, cache, solve, persist, encode.
func (lr *layerReplay) request(req *request, ring *fleet.Ring, ctl *admission.Controller,
	model func(service.ModelSpec) (*service.CachedModel, error), st *tstore.Store, persisted map[string]bool, r *run) error {
	var err error
	decode := func(v any) {
		lr.time("decode", func() {
			dec := json.NewDecoder(bytes.NewReader(req.body))
			dec.DisallowUnknownFields()
			err = dec.Decode(v)
		})
	}
	encode := func(v any) {
		lr.time("encode", func() { err = json.NewEncoder(io.Discard).Encode(v) })
	}
	route := func(key func() (string, error)) {
		lr.time("route", func() {
			var k string
			if k, err = key(); err == nil {
				ring.OwnerBounded(k, 1.25, nil, nil)
			}
		})
	}
	var dec *admission.Decision
	lr.time("admit", func() {
		if dec, err = ctl.Admit(context.Background(), ""); err == nil {
			dec.Release()
		}
	})
	if err != nil {
		return err
	}
	switch req.class {
	case classSteady:
		var in service.SteadyRequest
		if decode(&in); err != nil {
			return err
		}
		if route(in.Model.Fingerprint); err != nil {
			return err
		}
		cm, err := model(in.Model)
		if err != nil {
			return err
		}
		vec, err := cm.Model.PowerVector(in.Power)
		if err != nil {
			return err
		}
		var res *hotspot.Result
		lr.time("steady", func() {
			se := cm.Session()
			res = se.SteadyState(vec)
			cm.Release(se)
		})
		name, hot := res.Hottest()
		encode(service.SteadyResponse{BlockC: blockMap(cm.Model, res.BlocksC()), HottestBlock: name, HottestC: hot, SpreadC: res.Spread(), Cache: "hit"})
	case classTransient:
		var in service.TransientRequest
		if decode(&in); err != nil {
			return err
		}
		if route(in.Model.Fingerprint); err != nil {
			return err
		}
		cm, err := model(in.Model)
		if err != nil {
			return err
		}
		pts, err := lr.replayTrace(cm, in.Trace)
		if err != nil {
			return err
		}
		if err := lr.persist(st, req.run, cm.Model.Floorplan().Names(), pts); err != nil {
			return err
		}
		persisted[req.run] = true
		final, peak := finalPeak(pts)
		encode(service.TransientResponse{Blocks: cm.Model.Floorplan().Names(), FinalC: blockMap(cm.Model, final), PeakC: blockMap(cm.Model, peak), Steps: len(pts) - 1})
	case classSweep:
		var in service.SweepRequest
		if decode(&in); err != nil {
			return err
		}
		if route(in.Scenarios[0].Model.Fingerprint); err != nil {
			return err
		}
		cm, err := model(in.Scenarios[0].Model)
		if err != nil {
			return err
		}
		jobs := make([]hotspot.ReplayJob, len(in.Scenarios))
		for k, sc := range in.Scenarios {
			tr, err := powerTrace(sc.Trace)
			if err != nil {
				return err
			}
			jobs[k] = hotspot.ReplayJob{Model: cm.Model, Temps: cm.Model.AmbientState(), Rows: tr.Reader()}
		}
		var results [][]hotspot.TracePoint
		lr.time("sweep", func() { results, _ = hotspot.ReplayBatchResults(jobs, 0) })
		out := service.SweepResponse{Results: make([]service.SweepResult, len(results))}
		for k, pts := range results {
			final, peak := finalPeak(pts)
			out.Results[k] = service.SweepResult{BlockC: blockMap(cm.Model, final), PeakC: blockMap(cm.Model, peak)}
		}
		encode(out)
	case classScenario:
		var in service.ScenarioRequest
		if decode(&in); err != nil {
			return err
		}
		spec, err := scenario.ParseSpec(bytes.NewReader(in.Spec))
		if err != nil {
			return err
		}
		var comp *scenario.Compiled
		lr.time("scenario_compile", func() {
			comp, err = scenario.Compile(spec, scenario.Options{Models: func(cfg hotspot.Config) (*hotspot.Model, error) {
				sp, ok := specOfConfig(spec, cfg)
				if !ok {
					return hotspot.New(cfg)
				}
				cm, err := model(sp)
				if err != nil {
					return nil, err
				}
				return cm.Model, nil
			}})
		})
		if err != nil {
			return err
		}
		var cells []scenario.CellResult
		if in.Persist == "" {
			lr.time("scenario_grid", func() { cells = comp.RunGrid(context.Background(), 0, nil) })
		} else {
			w := tstore.NewWriter(st, in.Persist)
			lr.time("scenario_grid", func() { cells = comp.RunGridTelemetry(context.Background(), 0, nil, w) })
			lr.time("flush", func() { err = w.Flush() })
			if err != nil {
				return err
			}
		}
		lr.cells += len(cells)
		out := service.ScenarioResponse{Name: comp.Name(), Steps: comp.Steps()}
		for _, cr := range cells {
			m := cr.Metrics
			out.Cells = append(out.Cells, service.ScenarioCellJSON{Cell: cr.Cell.Index, Package: cr.Cell.Package, Metrics: &m})
		}
		encode(out)
	case classQuery:
		var q url.Values
		lr.time("decode", func() {
			var u *url.URL
			if u, err = url.Parse(req.path); err == nil {
				q = u.Query()
			}
		})
		if err != nil {
			return err
		}
		series := q.Get("series")
		if route(func() (string, error) { return "series:" + series, nil }); err != nil {
			return err
		}
		if run := runName(req.target); !persisted[run] {
			if err := lr.persistTarget(r, req, st, model); err != nil {
				return err
			}
			persisted[run] = true
		}
		from, to := int64(-1)<<62, int64(1)<<62
		if req.last >= 0 {
			from = tstore.Nanos((float64(req.first) - 0.5) * traceInterval)
			to = tstore.Nanos((float64(req.last) + 0.5) * traceInterval)
		}
		layer := "query_raw"
		if req.downsample == rollupNs {
			layer = "query_rollup"
		} else if req.downsample > 0 {
			layer = "query_buckets"
		}
		var res tstore.Result
		lr.time(layer, func() { res, err = st.Query(series, from, to, req.downsample) })
		if err != nil {
			return err
		}
		out := service.QueryResponse{Series: res.Series, FromNs: res.From, ToNs: res.To, DownsampleNs: res.Downsample}
		for _, row := range res.Rows {
			out.Rows = append(out.Rows, trace.TelemetryRow{TNs: row.T, V: row.V})
		}
		for _, b := range res.Buckets {
			out.Buckets = append(out.Buckets, trace.TelemetryBucket{StartNs: b.Start, Count: b.Count, Min: b.Min, Max: b.Max, Mean: b.Mean(), Sum: b.Sum})
		}
		encode(out)
	}
	return err
}

// specOfConfig names a scenario package's model as the ModelSpec the
// replay's cache keys on (EV6, the package kind and R_conv), when one
// matches its fingerprint.
func specOfConfig(spec *scenario.Spec, cfg hotspot.Config) (service.ModelSpec, bool) {
	for _, p := range spec.Packages {
		sp := service.ModelSpec{Floorplan: "ev6", Package: p.Kind, Rconv: p.Rconv}
		if fp, err := sp.Fingerprint(); err == nil && fp == cfg.Fingerprint() {
			return sp, true
		}
	}
	return service.ModelSpec{}, false
}

func powerTrace(ts *service.TraceSpec) (*trace.PowerTrace, error) {
	tr, err := trace.New(ts.Names, ts.Interval)
	if err != nil {
		return nil, err
	}
	for _, row := range ts.Rows {
		if err := tr.Append(row); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func (lr *layerReplay) replayTrace(cm *service.CachedModel, ts *service.TraceSpec) ([]hotspot.TracePoint, error) {
	tr, err := powerTrace(ts)
	if err != nil {
		return nil, err
	}
	var pts []hotspot.TracePoint
	lr.time("replay", func() {
		se := cm.Session()
		pts, err = se.ReplayRows(cm.Model.AmbientState(), tr.Reader())
		cm.Release(se)
	})
	lr.replayRows += len(ts.Rows)
	return pts, err
}

// persist times EmitTracePoints into a tstore.Writer and the flush.
func (lr *layerReplay) persist(st *tstore.Store, run string, names []string, pts []hotspot.TracePoint) error {
	w := tstore.NewWriter(st, run)
	var err error
	lr.time("append", func() { err = hotspot.EmitTracePoints(w, "", names, pts) })
	if err != nil {
		return err
	}
	lr.appendRows += int(w.Rows())
	lr.time("flush", func() { err = w.Flush() })
	return err
}

// persistTarget writes the transient a query reads into the replay's store.
func (lr *layerReplay) persistTarget(r *run, q *request, st *tstore.Store, model func(service.ModelSpec) (*service.CachedModel, error)) error {
	g := r.g
	if g.w.name != "replay-telemetry" {
		w, _ := findWorkload("replay-telemetry")
		g = newGenerator(w, r.g.seed)
	}
	var t *request
	if q.target < 0 {
		t = g.preload(-q.target - 1)
	} else {
		t = g.at(q.target)
	}
	cm, err := model(t.spec)
	if err != nil {
		return err
	}
	pts, err := lr.replayTrace(cm, t.trace)
	if err != nil {
		return err
	}
	return lr.persist(st, t.run, cm.Model.Floorplan().Names(), pts)
}

func blockMap(m *hotspot.Model, vals []float64) map[string]float64 {
	names := m.Floorplan().Names()
	out := make(map[string]float64, len(names))
	for i, n := range names {
		out[n] = vals[i]
	}
	return out
}
