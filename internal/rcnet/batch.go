package rcnet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
)

// This file holds the batched stepping layer: a BatchSession advances K
// independent temperature states through one backward-Euler step with a
// single factor traversal (linalg.Operator.SolveBatch). It is how the trace
// replay engine and the scenario grid one layer up (internal/hotspot) stop
// paying the factor's full memory traffic once per job per step.

// MaxBatchWidth caps how many right-hand sides one lockstep group solves per
// factor traversal. The packed block costs n·K floats of workspace; with the
// PR 6 register-blocked solve kernels a 64-wide group decomposes into four
// 16-wide kernel passes, amortizing panel loads to noise while a 2048-node
// model's block still fits in L2. Groups wider than this split — per-job
// results are unaffected (batching never changes per-column arithmetic).
const MaxBatchWidth = 64

// BatchSession is a K-wide backward-Euler stepping context over one
// compiled Solver: one solve workspace, one cached (C/dt + A) operator, and
// K right-hand-side slots stepped together. Like Session, a BatchSession
// must not be used from more than one goroutine at a time; any number of
// BatchSessions may run concurrently against the same Solver.
type BatchSession struct {
	s      *Solver
	ws     linalg.Workspace
	rhs    [][]float64 // per-slot right-hand sides
	sol    [][]float64 // per-slot iterative-solve scratch
	bview  [][]float64 // compacted active-slot views (reused)
	xview  [][]float64
	capDt  []float64
	step   float64
	op     linalg.Operator
	iter   bool
	nsteps uint64 // batched solves taken; drives the 1-in-8 latency sampling

	// Reduced-path state, mirroring session: see rcnet.go.
	red   *linalg.ReducedOperator
	epoch uint32
	res   []float64
}

// NewBatchSession creates a K-wide stepping context. Safe to call
// concurrently.
func (s *Solver) NewBatchSession(width int) *BatchSession {
	if width < 1 {
		width = 1
	}
	n := s.net.N()
	bs := &BatchSession{
		s:     s,
		rhs:   make([][]float64, width),
		sol:   make([][]float64, width),
		bview: make([][]float64, 0, width),
		xview: make([][]float64, 0, width),
		capDt: make([]float64, n),
	}
	for k := range bs.rhs {
		bs.rhs[k] = make([]float64, n)
		bs.sol[k] = make([]float64, n)
	}
	return bs
}

// Width returns the number of slots.
func (bs *BatchSession) Width() int { return len(bs.rhs) }

// StepBE advances up to Width temperature states (in place) by one
// backward-Euler step of size dt under per-slot constant power. Slots with a
// nil temperature vector are skipped — that is how lockstep callers drop
// jobs that already failed or finished. Per-slot solve failures (possible
// only on the iterative backend) land in errs; the returned error reports
// batch-level failures (bad dt, slot shape, operator factorization) that
// apply to every slot. Per-slot results are bit-identical to stepping each
// slot through its own Session: the batched solve never changes per-column
// arithmetic.
func (bs *BatchSession) StepBE(temps, powers [][]float64, dt float64, errs []error) error {
	if !(dt > 0) || math.IsInf(dt, 0) {
		return fmt.Errorf("rcnet: invalid step %g", dt)
	}
	kk := len(temps)
	if len(powers) != kk || len(errs) != kk || kk > len(bs.rhs) {
		return fmt.Errorf("rcnet: batch step shape: %d temps, %d powers, %d errs, width %d",
			kk, len(powers), len(errs), len(bs.rhs))
	}
	s := bs.s
	n := s.net.N()
	for k := 0; k < kk; k++ {
		if temps[k] == nil {
			continue
		}
		if len(temps[k]) != n || len(powers[k]) != n {
			return fmt.Errorf("rcnet: batch slot %d: temperature/power length %d/%d, want %d",
				k, len(temps[k]), len(powers[k]), n)
		}
	}
	if bs.op == nil || bs.step != dt || (s.reduced != nil && bs.epoch != s.epoch.Load()) {
		op, err := s.beOperatorCached(dt)
		if err != nil {
			return err
		}
		bs.op, bs.step, bs.iter = op, dt, op.Iterative()
		for i, c := range s.net.cap {
			bs.capDt[i] = c / dt
		}
		bs.red, _ = op.(*linalg.ReducedOperator)
		if s.reduced != nil {
			bs.epoch = s.epoch.Load()
			if bs.red != nil && bs.res == nil {
				bs.res = make([]float64, n)
			}
		}
	}
	ambRHS, capDt := s.ambRHS, bs.capDt
	width := 0
	for k := 0; k < kk; k++ {
		if temps[k] == nil {
			continue
		}
		rhs := bs.rhs[k]
		temp, power := temps[k], powers[k]
		for i := range rhs {
			rhs[i] = power[i] + ambRHS[i] + capDt[i]*temp[i]
		}
		width++
	}
	if width == 0 {
		return nil
	}
	st := &s.stats
	st.recordBatchWidth(width)
	sample := bs.nsteps&7 == 0
	bs.nsteps++
	var start time.Time
	if sample {
		start = time.Now()
	}
	if bs.iter {
		// Iterative solves run per column (each has its own Krylov
		// sequence), land in slot scratch and update the state only on
		// success, so a stalled column fails its own slot.
		for k := 0; k < kk; k++ {
			if temps[k] == nil {
				continue
			}
			if _, err := bs.op.Solve(bs.rhs[k], temps[k], bs.sol[k], &bs.ws); err != nil {
				errs[k] = fmt.Errorf("rcnet: backward Euler solve: %w", err)
				continue
			}
			st.cgSteps.Add(1)
			st.cgIterations.Add(int64(bs.ws.LastIterations))
			copy(temps[k], bs.sol[k])
		}
		if sample {
			st.stepSolveNanos.Add(8 * int64(time.Since(start)))
		}
		return nil
	}
	if bs.red != nil {
		// Reduced path: per-column solves into slot scratch (there is no
		// factor traversal to amortize), with a sampled residual check on
		// the first live slot before any caller state changes.
		for k := 0; k < kk; k++ {
			if temps[k] == nil {
				continue
			}
			if _, err := bs.op.Solve(bs.rhs[k], nil, bs.sol[k], &bs.ws); err != nil {
				return fmt.Errorf("rcnet: backward Euler batch solve: %w", err)
			}
		}
		if sample {
			st.stepSolveNanos.Add(8 * int64(time.Since(start)))
			for k := 0; k < kk; k++ {
				if temps[k] == nil {
					continue
				}
				if !s.checkReducedResidual(bs.red, bs.rhs[k], bs.sol[k], bs.res) {
					// Gate tripped: redo the whole batch step through the
					// full backend (no temp has been written yet).
					bs.op = nil
					return bs.StepBE(temps, powers, dt, errs)
				}
				break
			}
		}
		for k := 0; k < kk; k++ {
			if temps[k] != nil {
				copy(temps[k], bs.sol[k])
			}
		}
		st.directSteps.Add(int64(width))
		st.reducedSteps.Add(int64(width))
		return nil
	}
	// Direct path: one factor traversal for every active slot. Direct
	// solves cannot fail after factorization and write the state only in
	// their final scatter, so they target the temperature vectors in place.
	bs.bview = bs.bview[:0]
	bs.xview = bs.xview[:0]
	for k := 0; k < kk; k++ {
		if temps[k] == nil {
			continue
		}
		bs.bview = append(bs.bview, bs.rhs[k])
		bs.xview = append(bs.xview, temps[k])
	}
	if _, err := bs.op.SolveBatch(bs.bview, nil, bs.xview, &bs.ws); err != nil {
		return fmt.Errorf("rcnet: backward Euler batch solve: %w", err)
	}
	if sample {
		st.stepSolveNanos.Add(8 * int64(time.Since(start)))
	}
	st.directSteps.Add(int64(width))
	st.absorbKernels(&bs.ws)
	return nil
}
