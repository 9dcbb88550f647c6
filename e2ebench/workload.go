package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"

	"repro/internal/floorplan"
	"repro/internal/service"
	"repro/internal/tstore"
)

// class is a request's kind. Latency percentiles, checks and the layer
// replay are all kept per class.
type class uint8

const (
	classSteady    class = iota // POST /v1/steady
	classTransient              // POST /v1/transient, persisted inline trace replay
	classScenario               // POST /v1/scenario/stream, DTM grid with a live gcc phase
	classSweep                  // POST /v1/sweep of trace replays
	classQuery                  // GET /v1/query over a persisted transient
	nClasses
)

var classNames = [nClasses]string{"steady", "transient", "scenario", "sweep", "query"}

func (c class) String() string { return classNames[c] }

// request is one generated request plus the inputs the checks and the layer
// replay need to recompute it in-process.
type request struct {
	idx    int // position in the workload's sequence; preloaded runs are negative
	class  class
	method string
	path   string
	body   []byte

	spec      service.ModelSpec
	power     map[string]float64      // steady
	trace     *service.TraceSpec      // transient
	sweep     []service.SweepScenario // sweep
	scenario  json.RawMessage         // scenario spec
	run       string                  // persist run name (transient, scenario); "" = not persisted
	maxPoints int                     // transient

	target     int    // query: idx of the transient whose series it reads
	block      string // query: the block series it reads
	downsample int64  // query: bucket width in ns over the whole series (0 = raw rows)
	first      int    // raw query: index of the first sample in range
	last       int    // raw query: index of the last sample in range; -1 = the whole series
}

// workload is one traffic mix. rate and openShare are constants of the
// workload, never re-derived per run, so every commit sees the same offered
// load. rate is 40-45% of the median closed-loop capacity measured on the
// reference host (README.md): about half, kept below it because that host
// runs at half speed for seconds at a time.
type workload struct {
	name      string
	rate      float64 // fixed-rate phase, requests per second
	openShare float64 // share of --seconds spent in the fixed-rate phase
}

var workloads = []workload{
	{name: "warm-steady", rate: 1100, openShare: 0.75},
	{name: "model-churn", rate: 180, openShare: 0.65},
	{name: "replay-telemetry", rate: 250, openShare: 0.8},
	{name: "warm-replay", rate: 100, openShare: 0.8},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// RNG streams: every request draws from its own generator keyed by (seed,
// stream, index), so request i is the same bytes whichever goroutine builds
// it and whatever was built before it.
const (
	streamRequest uint64 = iota + 1
	streamPreload
	streamWarm
	streamOrder
)

// Replay-telemetry mix and shape constants.
const (
	preloadRuns   = 32    // transients persisted during set-up, readable from the first query on
	traceInterval = 1e-4  // s per trace row: a 1000-row run spans 100 one-millisecond rollup buckets
	queryLagS     = 2.0   // queries read in-run writes issued at least this long before them
	queryWindowS  = 20.0  // ... and no older than this
	rollupNs      = 1e6   // matches a tstore rollup level, so those buckets come from rollups
	rawBucketNs   = 2.5e6 // matches no rollup level: buckets fold raw rows
	transientMaxP = 16    // max_points on transient replies
	churnZipfS    = 1.1   // model-churn popularity skew
	gridDieSide   = 16e-3 // m, as service's grid:<nx>x<ny> floorplans
	gridTotalW    = 40.0  // W spread over a grid die
	builtinTotalW = 45.0  // W spread over an EV6/Athlon die
)

// generator builds a workload's request sequence from its seed. It is
// read-only after construction, so any goroutine may call it.
type generator struct {
	w     workload
	seed  uint64
	specs []service.ModelSpec             // the workload's model set
	order []int                           // model-churn: popularity rank -> index into specs
	fps   map[string]*floorplan.Floorplan // by ModelSpec.Floorplan
}

func newGenerator(w workload, seed uint64) *generator {
	g := &generator{w: w, seed: seed, fps: make(map[string]*floorplan.Floorplan)}
	switch w.name {
	case "warm-steady":
		for _, fp := range []string{"ev6", "athlon"} {
			for _, pkg := range []string{"air-sink", "oil-silicon"} {
				for _, rc := range []float64{0.3, 1.0} {
					for _, sec := range []bool{false, true} {
						g.specs = append(g.specs, service.ModelSpec{Floorplan: fp, Package: pkg, Rconv: rc, Secondary: sec})
					}
				}
			}
		}
	case "model-churn":
		sides := []int{8, 12, 16, 20, 24, 28, 32}
		for _, nx := range sides {
			for _, ny := range sides {
				for _, pkg := range []string{"air-sink", "oil-silicon"} {
					for _, rc := range []float64{0.3, 0.6, 1.0, 1.5, 2.0} {
						g.specs = append(g.specs, service.ModelSpec{Floorplan: fmt.Sprintf("grid:%dx%d", nx, ny), Package: pkg, Rconv: rc})
					}
				}
			}
		}
		// Popularity ranks follow one fixed order, the same for every seed:
		// ranks cycle through the 98 (shape, package) models so the hot set
		// spans every size, and seeds differ in the Zipf draws and the power
		// maps only. A seeded shuffle of all 490 gave each seed a different
		// hot set, size mix and replica placement, and with them run-to-run
		// spreads of 20-30% in cost per request.
		const variants = 5
		fixed := rand.New(rand.NewPCG(0, streamOrder))
		shapes := fixed.Perm(len(g.specs) / variants)
		rcs := fixed.Perm(variants)
		for rank := range g.specs {
			c := shapes[rank%len(shapes)]
			g.order = append(g.order, c*variants+rcs[(rank/len(shapes)+c)%variants])
		}
	case "replay-telemetry", "warm-replay":
		for _, fp := range []string{"ev6", "athlon"} {
			for _, pkg := range []string{"air-sink", "oil-silicon"} {
				g.specs = append(g.specs, service.ModelSpec{Floorplan: fp, Package: pkg, Rconv: 1.0})
			}
		}
	}
	for _, sp := range g.specs {
		if g.fps[sp.Floorplan] == nil {
			g.fps[sp.Floorplan] = resolveFloorplan(sp.Floorplan)
		}
	}
	return g
}

// resolveFloorplan mirrors the service's named floorplans for the names the
// workloads use.
func resolveFloorplan(name string) *floorplan.Floorplan {
	switch name {
	case "ev6":
		return floorplan.EV6()
	case "athlon":
		return floorplan.Athlon()
	}
	var nx, ny int
	if _, err := fmt.Sscanf(name, "grid:%dx%d", &nx, &ny); err != nil {
		panic("e2ebench: workload floorplan " + name)
	}
	return floorplan.GridDie(gridDieSide, gridDieSide, nx, ny)
}

func (g *generator) names(sp service.ModelSpec) []string { return g.fps[sp.Floorplan].Names() }

func (g *generator) rng(stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed, stream<<56^uint64(int64(i))))
}

// at returns request i of the measured sequence.
func (g *generator) at(i int) *request {
	return g.build(g.rng(streamRequest, i), i)
}

// warm returns warm-up request k of warm-steady, model-churn or
// warm-replay: the workload's own mix, drawn from a stream the measured
// sequence never uses.
func (g *generator) warm(k int) *request {
	return g.build(g.rng(streamWarm, k), -1_000_000-k)
}

// preload returns the k-th transient persisted during set-up.
func (g *generator) preload(k int) *request {
	return g.transient(g.rng(streamPreload, k), -(k + 1))
}

func (g *generator) build(r *rand.Rand, i int) *request {
	switch g.w.name {
	case "warm-steady":
		return g.steady(r, i, g.specs[r.IntN(len(g.specs))], builtinTotalW)
	case "model-churn":
		z := rand.NewZipf(r, churnZipfS, 1, uint64(len(g.specs)-1))
		return g.steady(r, i, g.specs[g.order[z.Uint64()]], gridTotalW)
	case "warm-replay":
		switch wrClass(r.Float64()) {
		case classTransient:
			return g.transient(r, i)
		case classSweep:
			return g.sweepReq(r, i)
		default:
			return g.scenarioReq(r, i, false)
		}
	}
	switch c := rtClass(r.Float64()); c {
	case classQuery:
		return g.query(r, i)
	case classTransient:
		return g.transient(r, i)
	case classSweep:
		return g.sweepReq(r, i)
	default:
		return g.scenarioReq(r, i, true)
	}
}

// rtClass maps a uniform draw onto the replay-telemetry mix: reads
// outnumber writes.
func rtClass(u float64) class {
	switch {
	case u < 0.918:
		return classQuery
	case u < 0.930:
		return classTransient
	case u < 0.950:
		return classSweep
	default:
		return classScenario
	}
}

// wrClass maps a uniform draw onto the warm-replay mix: batched sweeps and
// DTM grids, with a few persisted transients. Only those write to the
// store, which holds an open file per series.
func wrClass(u float64) class {
	switch {
	case u < 0.03:
		return classTransient
	case u < 0.51:
		return classSweep
	default:
		return classScenario
	}
}

// classAt is the class of measured request i without building it.
func (g *generator) classAt(i int) class {
	switch g.w.name {
	case "replay-telemetry":
		return rtClass(g.rng(streamRequest, i).Float64())
	case "warm-replay":
		return wrClass(g.rng(streamRequest, i).Float64())
	}
	return classSteady
}

func round(v, unit float64) float64 { return math.Round(v/unit) * unit }

// blockPower draws a per-block power map summing to about total watts.
func blockPower(r *rand.Rand, names []string, total float64) []float64 {
	p := make([]float64, len(names))
	unit := 0.01
	if len(names) > 64 {
		unit = 0.001
	}
	for i := range p {
		p[i] = round(total/float64(len(names))*(0.25+1.5*r.Float64()), unit)
	}
	return p
}

func (g *generator) steady(r *rand.Rand, i int, sp service.ModelSpec, total float64) *request {
	names := g.names(sp)
	p := blockPower(r, names, total)
	power := make(map[string]float64, len(names))
	for b, n := range names {
		power[n] = p[b]
	}
	req := &request{idx: i, class: classSteady, method: "POST", path: "/v1/steady", spec: sp, power: power}
	req.body = mustJSON(service.SteadyRequest{Model: sp, Power: power})
	return req
}

// traceRows draws rows of per-block power around a random base map.
func traceRows(r *rand.Rand, names []string, rows int) *service.TraceSpec {
	base := blockPower(r, names, builtinTotalW)
	ts := &service.TraceSpec{Names: names, Interval: traceInterval, Rows: make([][]float64, rows)}
	for k := range ts.Rows {
		row := make([]float64, len(names))
		for b := range row {
			row[b] = round(base[b]*(0.6+0.8*r.Float64()), 0.01)
		}
		ts.Rows[k] = row
	}
	return ts
}

// transientHead draws the part of a transient a query needs to know about
// it: its model and row count. transient consumes the same draws first.
func (g *generator) transientHead(r *rand.Rand) (service.ModelSpec, int) {
	return g.specs[r.IntN(len(g.specs))], 200 + r.IntN(801)
}

func runName(i int) string {
	if i < 0 {
		return "p" + strconv.Itoa(-i)
	}
	return "w" + strconv.Itoa(i)
}

func (g *generator) transient(r *rand.Rand, i int) *request {
	sp, rows := g.transientHead(r)
	req := &request{idx: i, class: classTransient, method: "POST", path: "/v1/transient", spec: sp,
		trace: traceRows(r, g.names(sp), rows), run: runName(i), maxPoints: transientMaxP}
	req.body = mustJSON(service.TransientRequest{Model: sp, Trace: req.trace, MaxPoints: req.maxPoints, Persist: req.run})
	return req
}

// transientAt re-derives the head of the transient a query targets.
func (g *generator) transientAt(target int) (service.ModelSpec, int) {
	var r *rand.Rand
	if target < 0 {
		r = g.rng(streamPreload, -target-1)
	} else {
		r = g.rng(streamRequest, target)
		r.Float64() // the class draw
	}
	return g.transientHead(r)
}

func (g *generator) sweepReq(r *rand.Rand, i int) *request {
	sp := g.specs[r.IntN(len(g.specs))]
	n := 4 + r.IntN(5)
	scs := make([]service.SweepScenario, n)
	for k := range scs {
		scs[k] = service.SweepScenario{Model: sp, Trace: traceRows(r, g.names(sp), 100+r.IntN(101))}
	}
	req := &request{idx: i, class: classSweep, method: "POST", path: "/v1/sweep", spec: sp, sweep: scs}
	req.body = mustJSON(service.SweepRequest{Scenarios: scs})
	return req
}

// scenarioReq is a 4-cell DTM grid (air and oil × two triggers) over ten
// 1 ms control steps of a live gcc phase, its telemetry persisted when
// persist is set. The 2 MHz clock keeps the co-simulated CPU to 2000 cycles
// per step, so one grid costs a few milliseconds like the checked-in pulse
// sweep; at the default clock it would take seconds.
func (g *generator) scenarioReq(r *rand.Rand, i int, persist bool) *request {
	t := 70 + r.IntN(15)
	spec := fmt.Sprintf(`{"name":"rt-dtm","interval":1e-3,"emergency_c":85,"initial_steady":true,"seed":%d,"power":{"clock_hz":2e6},`+
		`"phases":[{"name":"gcc","duration":0.01,"workload":"gcc"}],`+
		`"packages":[{"label":"air","kind":"air-sink","rconv":1.0},{"label":"oil","kind":"oil-silicon","rconv":1.0}],`+
		`"policies":{"trigger_c":[%d,%d],"engage_s":[3e-3],"perf_factor":[0.5]}}`,
		1+r.IntN(1000), t, t+4)
	req := &request{idx: i, class: classScenario, method: "POST", path: "/v1/scenario/stream", scenario: json.RawMessage(spec)}
	if persist {
		req.run = "s" + strconv.Itoa(i)
	}
	req.body = mustJSON(service.ScenarioRequest{Spec: req.scenario, Persist: req.run})
	return req
}

// query reads one block series of an earlier transient: an in-run write
// issued between queryWindowS and queryLagS before it, or a preloaded run.
// It goes through the router like every other request.
func (g *generator) query(r *rand.Rand, i int) *request {
	lag, window := int(queryLagS*g.w.rate), int(queryWindowS*g.w.rate)
	target := -(1 + r.IntN(preloadRuns))
	if lo := max(0, i-window); i-lag > lo && r.IntN(2) == 0 {
		for range 64 {
			if j := lo + r.IntN(i-lag-lo); g.classAt(j) == classTransient {
				target = j
				break
			}
		}
	}
	sp, rows := g.transientAt(target)
	names := g.names(sp)
	req := &request{idx: i, class: classQuery, method: "GET", target: target, block: names[r.IntN(len(names))], spec: sp, last: -1}
	q := url.Values{"series": {runName(target) + "/" + req.block}}
	switch r.IntN(4) {
	case 0:
		req.downsample = rollupNs
	case 1:
		req.downsample = rawBucketNs
	default:
		// A raw range of 50-200 samples. The bounds sit halfway between
		// samples, so the rows in range are exactly first..last whatever
		// the rounding of the sample times.
		req.first = r.IntN(rows + 1)
		req.last = min(rows, req.first+49+r.IntN(151))
		q.Set("from_ns", strconv.FormatInt(tstore.Nanos((float64(req.first)-0.5)*traceInterval), 10))
		q.Set("to_ns", strconv.FormatInt(tstore.Nanos((float64(req.last)+0.5)*traceInterval), 10))
	}
	if req.downsample > 0 {
		q.Set("downsample_ns", strconv.FormatInt(req.downsample, 10))
	}
	req.path = "/v1/query?" + q.Encode()
	return req
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generator only marshals its own well-formed request types
	}
	return b
}
