package hotspot

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/pool"
	"repro/internal/rcnet"
	"repro/internal/trace"
)

// Session is a per-goroutine simulation context over one compiled Model:
// its own solve workspace, backward-Euler operator cache, steady-state
// warm-start vector and block-power scratch. Any number of Sessions may run
// concurrently against the same Model; one Session must not be shared
// between goroutines. Long-lived services pool Sessions per cached model so
// repeated steady solves warm-start from the previous solution and repeated
// same-dt steps reuse one shifted operator. Replays share the solver's
// per-dt factor cache, so a repeated same-interval replay never refactors.
type Session struct {
	m         *Model
	rs        *rcnet.Session
	nodePower []float64
}

// NewSession creates an independent simulation context. Safe to call
// concurrently.
func (m *Model) NewSession() *Session {
	return &Session{m: m, rs: m.solver.NewSession(), nodePower: make([]float64, m.net.N())}
}

// Model returns the model this session runs against.
func (s *Session) Model() *Model { return s.m }

// SteadyState solves the equilibrium temperatures for a node-power vector
// (from PowerVector/BlockPowerVector), warm-starting from the session's
// previous steady solution. Results match Model.SteadyState.
func (s *Session) SteadyState(power []float64) *Result {
	return s.m.NewResult(s.rs.SteadyState(power))
}

// TraceColumns maps trace column names onto floorplan block indices: the
// returned slice has one entry per trace column, -1 where the column names
// no block (such columns are ignored during replay).
func (m *Model) TraceColumns(names []string) []int {
	cols := make([]int, len(names))
	fp := m.cfg.Floorplan
	for i, n := range names {
		cols[i] = fp.Index(n)
	}
	return cols
}

// CheckTraceNames verifies that every trace column names a floorplan block.
// Replay itself tolerates unknown columns (they are ignored); strict callers
// — the simulation service — reject them up front with this check.
func (m *Model) CheckTraceNames(names []string) error {
	fp := m.cfg.Floorplan
	for _, n := range names {
		if fp.Index(n) < 0 {
			return fmt.Errorf("hotspot: trace column %q names no floorplan block", n)
		}
	}
	return nil
}

// ReplayRows drives the model with rows streamed from a RowReader: each row
// is one backward-Euler step of the reader's interval, and the temperature
// state is recorded after every step (plus the initial state). Replay
// starts as soon as the first row is available and holds only one row in
// memory, so a transient can proceed while its trace is still arriving over
// a network stream. Replaying an in-memory trace (PowerTrace.Reader) and
// streaming the same rows (trace.NewDecoder) produce bit-identical results.
//
// temps (length = node count) is advanced in place. An empty trace (no
// rows) is an error. ReplayRows is a one-job ReplayBatchResults on the
// calling goroutine: same loop, same results, same errors.
func (s *Session) ReplayRows(temps []float64, rows trace.RowReader) ([]TracePoint, error) {
	if n := s.m.net.N(); len(temps) != n {
		return nil, fmt.Errorf("hotspot: temperature vector length %d, want %d", len(temps), n)
	}
	results, errs := make([][]TracePoint, 1), make([]error, 1)
	replayChunk([]ReplayJob{{Model: s.m, Temps: temps, Rows: rows}}, []int{0}, results, errs)
	return results[0], errs[0]
}

// StepBlockPower advances temps (length = node count, in place) by one
// backward-Euler step of size dt under the given per-block power (floorplan
// order, W). It is the building block of closed-loop co-simulation
// (internal/scenario): callers recompute blockPower between steps from
// feedback — throttling, temperature-dependent leakage — that an offline
// trace cannot carry. Same-dt steps reuse the session's cached shifted
// operator.
func (s *Session) StepBlockPower(temps, blockPower []float64, dt float64) error {
	m := s.m
	if len(temps) != m.net.N() {
		return fmt.Errorf("hotspot: temperature vector length %d, want %d", len(temps), m.net.N())
	}
	if len(blockPower) != m.cfg.Floorplan.N() {
		return fmt.Errorf("hotspot: got %d block powers, floorplan has %d", len(blockPower), m.cfg.Floorplan.N())
	}
	for i := range s.nodePower {
		s.nodePower[i] = 0
	}
	for bi, w := range blockPower {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("hotspot: invalid power %g for block %d", w, bi)
		}
		s.nodePower[m.blockNode[bi]] = w
	}
	return s.rs.StepBE(temps, s.nodePower, dt)
}

// ReplayJob describes one independent streamed replay for
// ReplayBatchResults.
type ReplayJob struct {
	Model *Model
	// Temps is the initial state (advanced in place); nil starts from
	// ambient.
	Temps []float64
	Rows  trace.RowReader
}

// ReplayBatchResults replays row-streamed jobs across a worker pool
// (workers ≤ 0 = GOMAXPROCS) and reports per-job outcomes: results and
// errors are both indexed like jobs, so callers serving independent
// scenarios can attribute each failure to its own job.
//
// Jobs are split round-robin into per-worker chunks; each worker groups its
// chunk by (model, trace interval) and advances every group in lockstep —
// one row pulled from each live reader per step, then one batched solve for
// all of them — so same-model same-interval jobs pay one factor traversal
// per step instead of one per job. Per-job results are bit-identical to
// Session.ReplayRows at any worker count. Shorter traces simply drop out of
// their group at EOF. A malformed job (nil model or rows, non-positive
// interval, wrong state length) or a reader that panics fails only its own
// job.
//
// Lockstep polling means each reader must be able to produce its next row
// without another reader in the batch being drained first. Independent
// sources (in-memory traces, separate files or connections — every caller
// in this repository) satisfy that trivially; slices of one sequential
// stream would not, and must be replayed one job per batch.
func ReplayBatchResults(jobs []ReplayJob, workers int) ([][]TracePoint, []error) {
	results := make([][]TracePoint, len(jobs))
	errs := make([]error, len(jobs))
	idx := make([]int, len(jobs))
	for j := range idx {
		idx[j] = j
	}
	pool.RunChunked(idx, workers, func(chunk []int) {
		replayChunk(jobs, chunk, results, errs)
	})
	return results, errs
}

// lane is one validated job's replay state inside a lockstep group.
type lane struct {
	job   int
	rows  trace.RowReader
	temps []float64 // the job's state, advanced in place
	power []float64 // node power of the current row
	cols  []int     // trace column → block index, -1 = ignored column
	row   []float64
	pts   []TracePoint
	flat  []float64 // every point's BlockC, one block-count stride per point
}

// newLane validates a job and resolves its interval, initial state and
// column map. A reader that panics fails its own job.
func newLane(j int, job ReplayJob) (ln *lane, dt float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			ln, err = nil, fmt.Errorf("job panicked: %v", r)
		}
	}()
	m := job.Model
	switch {
	case m == nil:
		return nil, 0, fmt.Errorf("nil model")
	case job.Rows == nil:
		return nil, 0, fmt.Errorf("nil row source")
	}
	if dt = job.Rows.Interval(); !(dt > 0) {
		return nil, 0, fmt.Errorf("hotspot: non-positive trace interval %g", dt)
	}
	temps := job.Temps
	if temps == nil {
		temps = m.AmbientState()
	}
	if n := m.net.N(); len(temps) != n {
		return nil, 0, fmt.Errorf("hotspot: temperature vector length %d, want %d", len(temps), n)
	}
	cols := m.TraceColumns(job.Rows.Names())
	return &lane{
		job: j, rows: job.Rows, temps: temps, cols: cols,
		power: make([]float64, len(temps)), row: make([]float64, len(cols)),
	}, dt, nil
}

// next pulls the lane's next row; a reader that panics fails its own job.
func (ln *lane) next() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return ln.rows.Next(ln.row)
}

// replayChunk validates jobs[idx], groups them by (model, interval) in
// first-seen order, splits groups past rcnet.MaxBatchWidth and replays each
// group in lockstep on the calling goroutine.
func replayChunk(jobs []ReplayJob, idx []int, results [][]TracePoint, errs []error) {
	type key struct {
		m  *Model
		dt float64
	}
	var order []key
	groups := make(map[key][]*lane)
	for _, j := range idx {
		ln, dt, err := newLane(j, jobs[j])
		if err != nil {
			errs[j] = err
			continue
		}
		k := key{jobs[j].Model, dt}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ln)
	}
	for _, k := range order {
		g := groups[k]
		for off := 0; off < len(g); off += rcnet.MaxBatchWidth {
			lockstep(k.m, k.dt, g[off:min(off+rcnet.MaxBatchWidth, len(g))], results, errs)
		}
	}
}

// lockstep replays one ≤MaxBatchWidth group of same-interval jobs against
// one model: each step pulls one row per live reader, expands it to node
// power, and advances every live state in one batched solve. It is the only
// trace-replay loop in the repository.
func lockstep(m *Model, dt float64, lanes []*lane, results [][]TracePoint, errs []error) {
	kk := len(lanes)
	nb := len(m.blockNode)
	bs := m.solver.NewBatchSession(kk)
	temps := make([][]float64, kk)
	powers := make([][]float64, kk)
	serrs := make([]error, kk)
	record := func(k int, t float64) {
		ln := lanes[k]
		off := len(ln.flat)
		ln.flat = slices.Grow(ln.flat, nb)[:off+nb]
		m.BlocksCInto(temps[k], ln.flat[off:])
		ln.pts = append(ln.pts, TracePoint{Time: t})
	}
	// stop drops a lane from the batch: a failed job keeps no points, a
	// finished one gets its points with BlockC views into the flat record.
	// Rows stepped so far = len(ln.pts)-1, so a failing row's 1-based
	// number is len(ln.pts).
	stop := func(k int, err error) {
		ln := lanes[k]
		temps[k] = nil
		if err != nil {
			errs[ln.job] = err
			return
		}
		for i := range ln.pts {
			ln.pts[i].BlockC = ln.flat[i*nb : (i+1)*nb : (i+1)*nb]
		}
		results[ln.job] = ln.pts
	}
	for k, ln := range lanes {
		temps[k], powers[k] = ln.temps, ln.power
		record(k, 0)
	}
	t := 0.0
	for {
		live := 0
		for k, ln := range lanes {
			if temps[k] == nil {
				continue
			}
			if err := ln.next(); err != nil {
				switch {
				case err != io.EOF:
					err = fmt.Errorf("hotspot: replay row %d: %w", len(ln.pts), err)
				case len(ln.pts) == 1:
					err = fmt.Errorf("hotspot: empty trace: no power rows")
				default:
					err = nil // finished; its points stand
				}
				stop(k, err)
				continue
			}
			clear(ln.power)
			for c, bi := range ln.cols {
				if bi >= 0 {
					ln.power[m.blockNode[bi]] = ln.row[c]
				}
			}
			live++
		}
		if live == 0 {
			return
		}
		if err := bs.StepBE(temps, powers, dt, serrs); err != nil {
			for k, ln := range lanes {
				if temps[k] != nil {
					stop(k, fmt.Errorf("hotspot: replay row %d: %w", len(ln.pts), err))
				}
			}
			return
		}
		t += dt
		for k, ln := range lanes {
			if temps[k] == nil {
				continue
			}
			if serrs[k] != nil {
				stop(k, fmt.Errorf("hotspot: replay row %d: %w", len(ln.pts), serrs[k]))
				serrs[k] = nil
				continue
			}
			record(k, t)
		}
	}
}
