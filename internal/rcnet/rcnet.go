// Package rcnet models lumped thermal RC networks: nodes with heat
// capacitances, thermal conductances between nodes, conductances to a fixed
// ambient, and per-node power injection. It provides steady-state solves,
// explicit (adaptive RK4) and implicit (backward Euler) transient
// integration, and dominant-time-constant extraction.
//
// The electrical analogy follows the paper's Fig. 7: temperature ↔ voltage,
// heat flow ↔ current, thermal resistance ↔ electrical resistance, heat
// capacity ↔ capacitance, dissipated power ↔ current source, ambient ↔
// ground at T_amb.
package rcnet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
	"repro/internal/ode"
)

// Network is a thermal RC network under construction. The zero value is not
// usable; create one with New.
type Network struct {
	names   []string
	byName  map[string]int
	cap     []float64 // heat capacitance per node, J/K
	ambG    []float64 // conductance to ambient per node, W/K
	pairs   map[[2]int]float64
	ambient float64 // ambient temperature, K

	// compile-once state for Compiled.
	compileOnce sync.Once
	compiled    *Solver
	compileErr  error
}

// New creates an empty network with the given ambient temperature (Kelvin).
func New(ambient float64) *Network {
	return &Network{
		byName:  make(map[string]int),
		pairs:   make(map[[2]int]float64),
		ambient: ambient,
	}
}

// Ambient returns the ambient temperature in Kelvin.
func (n *Network) Ambient() float64 { return n.ambient }

// N returns the number of nodes.
func (n *Network) N() int { return len(n.names) }

// AddNode adds a node with the given heat capacitance (J/K) and returns its
// index. Capacitance must be positive: the transient solvers integrate every
// node as a dynamic state. (Physically tiny layers get their physically tiny
// capacitance, which the implicit integrator handles without trouble.)
func (n *Network) AddNode(name string, capacitance float64) int {
	if name == "" {
		panic("rcnet: empty node name")
	}
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("rcnet: duplicate node %q", name))
	}
	if capacitance <= 0 || math.IsNaN(capacitance) {
		panic(fmt.Sprintf("rcnet: node %q needs positive capacitance, got %g", name, capacitance))
	}
	idx := len(n.names)
	n.names = append(n.names, name)
	n.byName[name] = idx
	n.cap = append(n.cap, capacitance)
	n.ambG = append(n.ambG, 0)
	return idx
}

// Index returns the index of the named node, or -1.
func (n *Network) Index(name string) int {
	if i, ok := n.byName[name]; ok {
		return i
	}
	return -1
}

// Name returns the name of node i.
func (n *Network) Name(i int) string { return n.names[i] }

// Capacitance returns the heat capacitance of node i (J/K).
func (n *Network) Capacitance(i int) float64 { return n.cap[i] }

// Connect adds a thermal conductance g = 1/R (W/K) between nodes i and j.
// Repeated calls accumulate (parallel resistances).
func (n *Network) Connect(i, j int, g float64) {
	if i == j {
		panic("rcnet: self connection")
	}
	if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		panic(fmt.Sprintf("rcnet: invalid conductance %g between %d and %d", g, i, j))
	}
	n.checkIndex(i)
	n.checkIndex(j)
	if i > j {
		i, j = j, i
	}
	n.pairs[[2]int{i, j}] += g
}

// ConnectR is Connect expressed as a resistance (K/W).
func (n *Network) ConnectR(i, j int, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("rcnet: invalid resistance %g", r))
	}
	n.Connect(i, j, 1/r)
}

// ConnectAmbient adds conductance g (W/K) from node i to the ambient.
func (n *Network) ConnectAmbient(i int, g float64) {
	if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		panic(fmt.Sprintf("rcnet: invalid ambient conductance %g at %d", g, i))
	}
	n.checkIndex(i)
	n.ambG[i] += g
}

// ConnectAmbientR is ConnectAmbient expressed as a resistance (K/W).
func (n *Network) ConnectAmbientR(i int, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("rcnet: invalid ambient resistance %g", r))
	}
	n.ConnectAmbient(i, 1/r)
}

func (n *Network) checkIndex(i int) {
	if i < 0 || i >= len(n.names) {
		panic(fmt.Sprintf("rcnet: node index %d out of range", i))
	}
}

// DenseCutoff is the node count at or below which Compile picks the dense
// LU backend. Above it Compile assembles CSR and factors with supernodal
// sparse LDLᵀ (falling back to Jacobi-preconditioned conjugate gradients
// when the predicted factor fill exceeds CholeskyMaxFill). PR 5 dropped the
// cutoff from 64 to 8: an air-sink EV6 network (~40 nodes) solves ~5×
// faster through the compressed sparse factor than through O(n²) dense
// back-substitution, and the sparse path batches. The dense backend remains
// the parity oracle via CompileHint(HintDense).
const DenseCutoff = 8

// CholeskyMaxFill caps the sparse direct path: Compile falls back to the CG
// backend when the symbolic analysis predicts nnz(L+D+Lᵀ) beyond this
// multiple of nnz(A). Floorplan-shaped networks order to ~10-25× under RCM
// (measured in DESIGN.md §7.2); genuinely 3D grids — the reference solver's
// territory — blow far past this.
const CholeskyMaxFill = 40

// SolverHint selects the linear-solver backend at Compile time.
type SolverHint int

const (
	// HintAuto picks dense LU for tiny networks, sparse Cholesky (LDLᵀ)
	// when the predicted fill is acceptable, and CG otherwise. This is what
	// Compile does.
	HintAuto SolverHint = iota
	// HintDense forces the dense LU oracle.
	HintDense
	// HintCholesky forces the sparse direct LDLᵀ backend with no fill cap;
	// non-SPD systems fail Compile.
	HintCholesky
	// HintCG forces the Jacobi-preconditioned conjugate-gradient backend.
	HintCG
	// HintReduced compiles onto the reduced-order (Krylov-projected) backend
	// with default ReducedSpec settings: block-Arnoldi moment matching, dense
	// pre-factored backward-Euler steps, automatic fallback to the full
	// backend when the sampled residual gate trips (DESIGN.md §10). Use
	// CompileReduced directly to pick the input columns and order.
	HintReduced
)

// String names the hint for logs.
func (h SolverHint) String() string {
	switch h {
	case HintDense:
		return "dense"
	case HintCholesky:
		return "cholesky"
	case HintCG:
		return "cg"
	case HintReduced:
		return "reduced"
	default:
		return "auto"
	}
}

// Solver is an assembled network ready for simulation. It holds the
// conductance system behind a linalg.Operator (dense LU, sparse direct
// LDLᵀ, or sparse CG, chosen at Compile) plus a shared cache of
// backward-Euler operators, one factorization per step size. Create with
// Compile; a Solver must not outlive subsequent mutations of its Network.
//
// SteadyState, DominantTimeConstant and HeatFlowToAmbient are safe to call
// from any number of goroutines (per-call scratch comes from an internal
// pool). The fixed-dt stepping methods (StepBE, TransientBE) share one
// per-solver session and must not be called concurrently; concurrent
// stepping goes through per-goroutine Sessions (NewSession) or
// BatchSessions (NewBatchSession), which keep all mutable state per
// session.
type Solver struct {
	net     *Network
	backend linalg.Backend
	// op is the conductance (Laplacian + ambient) operator: diag holds the
	// sum of all conductances incident to i, off-diagonal (i,j) = -g(i,j).
	op     linalg.Operator
	invCap []float64
	// ambRHS is the constant G_amb·T_amb right-hand-side term, precomputed
	// so the stepping hot path performs no per-node multiply for it.
	ambRHS []float64
	wsPool sync.Pool // *linalg.Workspace scratch for the steady entry points

	// serial is the lazily-created stepping session backing StepBE and
	// TransientBE; concurrent replays create their own sessions instead.
	serial *session

	// beOps caches backward-Euler operators (C/dt + A) per step size,
	// shared by every session on this solver: the first session to step at
	// a given dt factors (single-flight), later sessions — e.g. a service's
	// whole session pool replaying same-interval traces — reuse the factor
	// and run solve-only steps. Bounded at beCacheCap distinct step sizes;
	// beyond that operators are built uncached (sessions still hold the
	// operator for their current dt, so repeated same-dt stepping never
	// refactors either way).
	beMu  sync.Mutex
	beOps map[float64]*beEntry

	// stats aggregates per-path solver counters across all sessions.
	stats solverStats

	// rescue is the lazily-built dense fallback for steady solves the
	// iterative backend stalls on (see rescueSolve).
	rescueOnce sync.Once
	rescue     linalg.Operator

	// Reduced-order state (nil/zero unless compiled via CompileReduced):
	// reduced is the projection operator, redGate the sampled-residual
	// threshold, epoch bumps when the gate trips so sessions refetch their
	// operators, and fullOp is the lazily-assembled full backend the solver
	// falls back onto (see reduced.go).
	reduced  *linalg.ReducedOperator
	redGate  float64
	epoch    atomic.Uint32
	fullOnce sync.Once
	fullOp   linalg.Operator
	fullErr  error
}

// beCacheCap bounds the per-solver (dt → operator) cache.
const beCacheCap = 16

type beEntry struct {
	once sync.Once
	op   linalg.Operator
	err  error
}

// batchWidthBuckets labels the batch-width histogram: how many right-hand
// sides each batched step solved per factor traversal.
var batchWidthBuckets = [...]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"}

// batchBucket maps a batch width to its histogram bucket.
func batchBucket(w int) int {
	switch {
	case w <= 1:
		return 0
	case w == 2:
		return 1
	case w <= 4:
		return 2
	case w <= 8:
		return 3
	case w <= 16:
		return 4
	case w <= 32:
		return 5
	case w <= 64:
		return 6
	default:
		return 7
	}
}

// kernelWidthLabels names the solve-kernel widths the direct backend
// dispatches over (linalg.Workspace.KernelSolves slot order).
var kernelWidthLabels = [...]string{"1", "4", "8", "16"}

// solverStats holds the solver's atomic counters; SolverStats is the
// exported snapshot.
type solverStats struct {
	factorizations atomic.Int64
	factorReuses   atomic.Int64
	directSteps    atomic.Int64
	cgSteps        atomic.Int64
	cgIterations   atomic.Int64
	stepSolveNanos atomic.Int64
	batchHist      [len(batchWidthBuckets)]atomic.Int64
	kernelSolves   [len(kernelWidthLabels)]atomic.Int64

	reducedSteps     atomic.Int64
	reducedFallbacks atomic.Int64
}

func (st *solverStats) recordBatchWidth(w int) {
	st.batchHist[batchBucket(w)].Add(1)
}

// absorbKernels drains a workspace's per-width kernel-solve counters into
// the solver's atomics (read-and-reset: workspaces are per-goroutine, the
// solver aggregate is shared).
func (st *solverStats) absorbKernels(ws *linalg.Workspace) {
	for i, v := range ws.KernelSolves {
		if v != 0 {
			st.kernelSolves[i].Add(v)
			ws.KernelSolves[i] = 0
		}
	}
}

// SolverStats is a snapshot of a solver's per-path counters. All counters
// aggregate over every session of the solver since Compile.
type SolverStats struct {
	// Factorizations counts numeric matrix factorizations: the eager
	// factorization at Compile (direct backends) plus one per distinct
	// backward-Euler step size. CG assemblies don't factor and don't count.
	Factorizations int64 `json:"factorizations"`
	// FactorReuses counts backward-Euler operator requests served from the
	// per-solver (dt → operator) cache instead of factoring.
	FactorReuses int64 `json:"factor_reuses"`
	// DirectSteps and CGSteps split backward-Euler steps by solve path:
	// triangular/back-substitution solves vs conjugate-gradient iteration.
	DirectSteps int64 `json:"direct_steps"`
	CGSteps     int64 `json:"cg_steps"`
	// CGIterations totals CG iterations across CGSteps.
	CGIterations int64 `json:"cg_iterations"`
	// StepSolveNanos estimates cumulative wall time inside backward-Euler
	// step solves (sampled one solve in eight and scaled, so the clock reads
	// don't tax the hot path; a batched solve's time covers all its columns);
	// divide by (DirectSteps+CGSteps) for the mean per-state solve latency.
	StepSolveNanos int64 `json:"step_solve_nanos"`
	// Supernodes and MaxPanelRows describe the supernodal factor of the
	// direct backend (0 on the dense and CG paths): the number of dense
	// panels and the tallest panel's row count.
	Supernodes   int `json:"supernodes,omitempty"`
	MaxPanelRows int `json:"max_panel_rows,omitempty"`
	// BatchWidths histograms the batched solves by how many right-hand
	// sides each solved per factor traversal (buckets "1".."65+"). Steps
	// taken through non-batched sessions are not counted here.
	BatchWidths map[string]int64 `json:"batch_widths,omitempty"`
	// KernelSolves counts sparse triangular-solve kernel invocations by
	// register-block width ("1", "4", "8", "16"): one batched step over K
	// right-hand sides decomposes greedily (e.g. K=31 → one 16-wide, one
	// 8-wide, one 4-wide and three 1-wide invocations). Float32 factors
	// count the refinement pass too (two invocations per solve).
	KernelSolves map[string]int64 `json:"kernel_solves,omitempty"`
	// ReducedOrder and ReducedProjError describe the reduced-order backend
	// (zero on every other path): the Krylov basis size and the worst
	// relative residual over the input columns at construction time.
	ReducedOrder     int     `json:"reduced_order,omitempty"`
	ReducedProjError float64 `json:"reduced_proj_error,omitempty"`
	// ReducedSteps counts backward-Euler steps solved through the reduced
	// projection; ReducedFallbacks counts falls back onto the full backend
	// (at compile, when the basis cannot be built, or at run time, when a
	// sampled step residual exceeds the gate).
	ReducedSteps     int64 `json:"reduced_steps,omitempty"`
	ReducedFallbacks int64 `json:"reduced_fallbacks,omitempty"`
}

// Stats snapshots the solver's per-path counters.
func (s *Solver) Stats() SolverStats {
	out := SolverStats{
		Factorizations: s.stats.factorizations.Load(),
		FactorReuses:   s.stats.factorReuses.Load(),
		DirectSteps:    s.stats.directSteps.Load(),
		CGSteps:        s.stats.cgSteps.Load(),
		CGIterations:   s.stats.cgIterations.Load(),
		StepSolveNanos: s.stats.stepSolveNanos.Load(),
	}
	if c, ok := s.op.(*linalg.CholeskyOperator); ok {
		out.Supernodes = c.Supernodes()
		out.MaxPanelRows = c.MaxPanelRows()
	}
	if s.reduced != nil {
		out.ReducedOrder = s.reduced.Order()
		out.ReducedProjError = s.reduced.ProjectionError()
	}
	out.ReducedSteps = s.stats.reducedSteps.Load()
	out.ReducedFallbacks = s.stats.reducedFallbacks.Load()
	for i := range s.stats.batchHist {
		if v := s.stats.batchHist[i].Load(); v > 0 {
			if out.BatchWidths == nil {
				out.BatchWidths = make(map[string]int64, len(batchWidthBuckets))
			}
			out.BatchWidths[batchWidthBuckets[i]] = v
		}
	}
	for i := range s.stats.kernelSolves {
		if v := s.stats.kernelSolves[i].Load(); v > 0 {
			if out.KernelSolves == nil {
				out.KernelSolves = make(map[string]int64, len(kernelWidthLabels))
			}
			out.KernelSolves[kernelWidthLabels[i]] = v
		}
	}
	return out
}

// getWS borrows a workspace from the solver's pool; putWS returns it.
func (s *Solver) getWS() *linalg.Workspace {
	if v := s.wsPool.Get(); v != nil {
		return v.(*linalg.Workspace)
	}
	return &linalg.Workspace{}
}

func (s *Solver) putWS(ws *linalg.Workspace) {
	s.stats.absorbKernels(ws)
	s.wsPool.Put(ws)
}

// Compile assembles the network into a solver, auto-selecting the backend:
// dense LU for networks of at most DenseCutoff nodes, sparse direct LDLᵀ
// (RCM-ordered Cholesky) above it when the predicted factor fill stays under
// CholeskyMaxFill, and Jacobi-CG otherwise. It verifies every node has a
// path to ambient (otherwise the conductance matrix is singular and the
// steady state unbounded), so the direct backends never see a structurally
// singular system. Equivalent to CompileHint(HintAuto); use CompileHint to
// force a specific backend.
func (n *Network) Compile() (*Solver, error) {
	return n.CompileHint(HintAuto)
}

// CompileHint is Compile with an explicit backend choice. HintAuto applies
// the selection heuristic above; the other hints force their backend (and
// surface its errors — e.g. HintCholesky on a non-SPD system fails instead
// of falling back).
func (n *Network) CompileHint(hint SolverHint) (*Solver, error) {
	switch hint {
	case HintDense:
		return n.CompileWith(linalg.DenseBackend{})
	case HintCholesky:
		return n.CompileWith(linalg.CholeskyBackend{})
	case HintCG:
		return n.CompileWith(linalg.SparseBackend{})
	case HintReduced:
		return n.CompileReduced(ReducedSpec{})
	}
	if n.N() <= DenseCutoff {
		return n.CompileWith(linalg.DenseBackend{})
	}
	s, err := n.CompileWith(linalg.CholeskyBackend{MaxFillRatio: CholeskyMaxFill})
	if err != nil && (errors.Is(err, linalg.ErrCholeskyFill) || errors.Is(err, linalg.ErrNotSPD) || errors.Is(err, linalg.ErrNotSymmetric)) {
		// Too much fill (or a system the direct path cannot factor): the
		// iterative backend handles both.
		return n.CompileWith(linalg.SparseBackend{})
	}
	return s, err
}

// CompileWith assembles the network onto an explicit solver backend. Use it
// to force the dense oracle or a specially-configured sparse backend; most
// callers want Compile.
func (n *Network) CompileWith(backend linalg.Backend) (*Solver, error) {
	sz := n.N()
	if sz == 0 {
		return nil, fmt.Errorf("rcnet: empty network")
	}
	if err := n.checkGrounded(); err != nil {
		return nil, err
	}
	op, err := backend.Assemble(sz, n.assemble())
	if err != nil {
		return nil, fmt.Errorf("rcnet: %s assembly: %w", backend.Name(), err)
	}
	inv := make([]float64, sz)
	for i, c := range n.cap {
		inv[i] = 1 / c
	}
	amb := make([]float64, sz)
	for i, g := range n.ambG {
		amb[i] = g * n.ambient
	}
	s := &Solver{net: n, backend: backend, op: op, invCap: inv, ambRHS: amb, beOps: make(map[float64]*beEntry)}
	if !op.Iterative() {
		s.stats.factorizations.Add(1) // direct backends factor eagerly in Assemble
	}
	return s, nil
}

// assemble emits the conductance system in coordinate form. Pairs are
// visited in sorted order and the diagonal is accumulated in that same
// order, so floating-point accumulation (and therefore every downstream
// result) is deterministic across runs and identical for both backends.
func (n *Network) assemble() []linalg.Coord {
	sz := n.N()
	keys := make([][2]int, 0, len(n.pairs))
	for ij := range n.pairs {
		keys = append(keys, ij)
	}
	sort.Slice(keys, func(x, y int) bool {
		if keys[x][0] != keys[y][0] {
			return keys[x][0] < keys[y][0]
		}
		return keys[x][1] < keys[y][1]
	})
	diag := make([]float64, sz)
	entries := make([]linalg.Coord, 0, 2*len(keys)+sz)
	for _, ij := range keys {
		g := n.pairs[ij]
		i, j := ij[0], ij[1]
		diag[i] += g
		diag[j] += g
		entries = append(entries,
			linalg.Coord{I: i, J: j, V: -g},
			linalg.Coord{I: j, J: i, V: -g})
	}
	for i, g := range n.ambG {
		diag[i] += g
	}
	for i, d := range diag {
		entries = append(entries, linalg.Coord{I: i, J: i, V: d})
	}
	return entries
}

// checkGrounded verifies every node reaches a node with an ambient
// conductance through the pair graph. The dense backend would also catch the
// resulting singularity during factorization, but the iterative sparse
// backend cannot, so the structural check keeps both backends' Compile
// behavior identical.
func (n *Network) checkGrounded() error {
	sz := n.N()
	parent := make([]int, sz)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for ij := range n.pairs {
		a, b := find(ij[0]), find(ij[1])
		if a != b {
			parent[a] = b
		}
	}
	grounded := make(map[int]bool, sz)
	for i, g := range n.ambG {
		if g > 0 {
			grounded[find(i)] = true
		}
	}
	for i := 0; i < sz; i++ {
		if !grounded[find(i)] {
			return fmt.Errorf("rcnet: network has no path to ambient (floating island at node %q)", n.names[i])
		}
	}
	return nil
}

// Net returns the underlying network.
func (s *Solver) Net() *Network { return s.net }

// FactorInfo reports the sparse direct factor's size (strictly-lower
// entries) and fill ratio nnz(L+D+Lᵀ)/nnz(A) when the solver compiled onto
// the Cholesky backend; ok is false on the dense and CG paths.
func (s *Solver) FactorInfo() (nnzL int, fillRatio float64, ok bool) {
	if c, isChol := s.op.(*linalg.CholeskyOperator); isChol {
		return c.NNZL(), c.FillRatio(), true
	}
	return 0, 0, false
}

// Backend returns the name of the linear-algebra backend in use ("dense",
// "cholesky", "sparse" or "reduced").
func (s *Solver) Backend() string { return s.backend.Name() }

// SteadyState returns the equilibrium temperatures (Kelvin) for constant
// per-node power injection (W). power must have length N. If the iterative
// backend fails to converge (catastrophically ill-conditioned conductances),
// the solve falls back to an exact dense LU, so a grounded network always
// gets an answer. Safe for concurrent use.
func (s *Solver) SteadyState(power []float64) []float64 {
	ws := s.getWS()
	defer s.putWS(ws)
	var warm []float64
	if s.op.Iterative() {
		warm = s.AmbientVector() // direct solves ignore warm starts: skip the vector
	}
	return s.solveRefined(s.rhs(power), warm, ws)
}

// solveRefined solves A·x = b to near-direct accuracy: one backend solve
// plus, when the residual shows the backend stopped at an iterative
// tolerance, a step of iterative refinement. This keeps steady-state
// answers from the sparse backend within oracle distance of the dense LU
// (network invariants like reciprocity hold to ~1e-12 instead of the CG
// tolerance), at the cost of at most one extra solve. If the iterative
// backend stalls outright (catastrophically ill-conditioned conductances),
// the solve falls back to a lazily-built dense LU rather than failing.
func (s *Solver) solveRefined(b, warm []float64, ws *linalg.Workspace) []float64 {
	op := s.baseOp()
	x, err := op.Solve(b, warm, nil, ws)
	if err != nil {
		return s.rescueSolve(b)
	}
	if !op.Iterative() && s.reduced == nil {
		return x // exact direct solve: refinement would buy nothing
	}
	// Iterative tolerance or reduced projection: one refinement step. (For
	// the reduced path Apply is the exact matrix, so the step removes the
	// within-subspace part of the projection error.)
	r := make([]float64, len(b))
	op.Apply(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if linalg.Norm2(r) > 1e-14*linalg.Norm2(b) {
		if d, err := op.Solve(r, nil, nil, ws); err == nil {
			linalg.AXPY(1, d, x)
		}
	}
	return x
}

// rescueSolve is the last-resort path for systems the iterative backend
// cannot converge on: reassemble once onto the dense LU oracle and solve
// directly. O(n³) on first use, but it turns a would-be crash on a
// pathological network into a slow, exact answer. It panics only if the
// dense factorization itself fails, which checkGrounded rules out for any
// network Compile accepted.
func (s *Solver) rescueSolve(b []float64) []float64 {
	s.rescueOnce.Do(func() {
		op, err := linalg.DenseBackend{}.Assemble(s.net.N(), s.net.assemble())
		if err != nil {
			panic(fmt.Sprintf("rcnet: dense rescue assembly failed: %v", err))
		}
		s.rescue = op
	})
	x, err := s.rescue.Solve(b, nil, nil, nil)
	if err != nil {
		panic(fmt.Sprintf("rcnet: dense rescue solve failed: %v", err))
	}
	return x
}

// rhs builds P + G_amb·T_amb.
func (s *Solver) rhs(power []float64) []float64 {
	if len(power) != s.net.N() {
		panic(fmt.Sprintf("rcnet: power vector length %d, want %d", len(power), s.net.N()))
	}
	rhs := make([]float64, len(power))
	for i := range rhs {
		rhs[i] = power[i] + s.ambRHS[i]
	}
	return rhs
}

// AmbientVector returns temperatures all equal to the ambient, the usual
// cold-start initial condition.
func (s *Solver) AmbientVector() []float64 {
	t := make([]float64, s.net.N())
	linalg.Fill(t, s.net.ambient)
	return t
}

// derivs computes dT/dt = C⁻¹ (P + G_amb·T_amb − A·T). The A·T product goes
// through the operator, so it costs O(nnz) on the sparse backend instead of
// the dense O(n²) row sweep.
func (s *Solver) derivs(power []float64) ode.Derivs {
	at := make([]float64, s.net.N())
	return func(_ float64, temp, dst []float64) {
		s.op.Apply(temp, at)
		for i := range dst {
			dst[i] = (power[i] + s.ambRHS[i] - at[i]) * s.invCap[i]
		}
	}
}

// TransientOptions configure transient integration.
type TransientOptions struct {
	// AbsTol is the adaptive-RK4 per-step tolerance in Kelvin
	// (default 1e-4 K).
	AbsTol float64
	// MaxStep caps the adaptive integrator's step size (0 = no cap). Use it
	// to bound the power-constant interval or to force resolution of fast
	// features the error estimator might step over.
	MaxStep float64
}

// Transient advances temp (in place) by duration seconds under constant
// power using the adaptive RK4 integrator. Returns integrator statistics.
func (s *Solver) Transient(temp, power []float64, duration float64, opt TransientOptions) (ode.Stats, error) {
	if len(temp) != s.net.N() {
		return ode.Stats{}, fmt.Errorf("rcnet: temperature vector length %d, want %d", len(temp), s.net.N())
	}
	aOpt := ode.AdaptiveOptions{AbsTol: opt.AbsTol, MaxStep: opt.MaxStep}
	return ode.AdaptiveRK4(s.derivs(power), 0, temp, duration, aOpt)
}

// beOperator derives the backward-Euler operator (C/dt + A) from the
// conductance operator. On the direct backends the shift reuses the
// conductance operator's symbolic analysis and performs a numeric
// refactorization only.
func (s *Solver) beOperator(dt float64) (linalg.Operator, error) {
	shift := make([]float64, s.net.N())
	for i, c := range s.net.cap {
		shift[i] = c / dt
	}
	op, err := s.baseOp().Shift(shift)
	if err != nil {
		return nil, fmt.Errorf("rcnet: backward Euler operator: %w", err)
	}
	if !op.Iterative() {
		s.stats.factorizations.Add(1)
	}
	return op, nil
}

// beOperatorCached returns the backward-Euler operator for dt through the
// per-solver cache: one factorization per (solver, dt), single-flight, any
// number of concurrent sessions. Past beCacheCap distinct step sizes new
// operators are built uncached.
func (s *Solver) beOperatorCached(dt float64) (linalg.Operator, error) {
	s.beMu.Lock()
	e, ok := s.beOps[dt]
	if !ok {
		if len(s.beOps) >= beCacheCap {
			s.beMu.Unlock()
			return s.beOperator(dt)
		}
		e = &beEntry{}
		s.beOps[dt] = e
	}
	s.beMu.Unlock()
	e.once.Do(func() { e.op, e.err = s.beOperator(dt) })
	if ok && e.err == nil {
		s.stats.factorReuses.Add(1)
	}
	return e.op, e.err
}

// StepBE advances temp (in place) by one backward-Euler step of size dt
// under constant power. Backward Euler is unconditionally stable, which
// makes it the right integrator for the stiff networks that mix the tiny
// oil-boundary-layer capacitance with the large heatsink capacitance. The
// (C/dt + A) operator is cached across calls with the same dt; the solve is
// warm-started from the current temperatures on the iterative backend. On
// error, temp is left unchanged.
func (s *Solver) StepBE(temp, power []float64, dt float64) error {
	if len(temp) != s.net.N() {
		return fmt.Errorf("rcnet: temperature vector length %d, want %d", len(temp), s.net.N())
	}
	if s.serial == nil {
		s.serial = s.newSession()
	}
	return s.serial.stepBE(temp, power, dt)
}

// TransientBE advances temp by duration using fixed backward-Euler steps of
// size dt (the final step is shortened to land on the end time).
func (s *Solver) TransientBE(temp, power []float64, duration, dt float64) error {
	if duration <= 0 {
		return fmt.Errorf("rcnet: non-positive duration %g", duration)
	}
	t := 0.0
	for t < duration-1e-15*duration {
		step := dt
		if step > duration-t {
			step = duration - t
		}
		if err := s.StepBE(temp, power, step); err != nil {
			return err
		}
		t += step
	}
	return nil
}

// session is an independent backward-Euler stepping context: its own solve
// workspace and scratch buffers, plus a reference to the solver-cached
// backward-Euler operator for its current step size. Concurrent steppers
// on one Solver each get a session, so the mutable state they share
// is limited to the solver's factor cache and atomic counters.
type session struct {
	s        *Solver
	ws       linalg.Workspace
	rhs, sol []float64
	capDt    []float64 // C/dt for the current step size (hot-path rhs term)
	step     float64
	op       linalg.Operator
	iter     bool   // op.Iterative(), cached off the hot path
	nsteps   uint64 // steps taken; drives the 1-in-8 latency sampling

	// Reduced-path state: red is the current operator when it is a reduced
	// projection (nil otherwise), epoch the solver epoch it was fetched at,
	// res the residual-check scratch. All unused on full-backend solvers.
	red   *linalg.ReducedOperator
	epoch uint32
	res   []float64
}

func (s *Solver) newSession() *session {
	n := s.net.N()
	return &session{s: s, rhs: make([]float64, n), sol: make([]float64, n), capDt: make([]float64, n)}
}

// stepBE performs one backward-Euler step. temp is updated only by a
// successful solve: iterative solves land in session scratch first, direct
// solves cannot fail after factorization.
func (ss *session) stepBE(temp, power []float64, dt float64) error {
	if !(dt > 0) || math.IsInf(dt, 0) {
		// NaN must be rejected here, not just nonsense-tolerated: it would
		// both poison the solver's (dt → factor) cache (NaN map keys never
		// match a lookup) and factor to silent NaN temperatures.
		return fmt.Errorf("rcnet: invalid step %g", dt)
	}
	net := ss.s.net
	if len(power) != net.N() {
		panic(fmt.Sprintf("rcnet: power vector length %d, want %d", len(power), net.N()))
	}
	if ss.op == nil || ss.step != dt || (ss.s.reduced != nil && ss.epoch != ss.s.epoch.Load()) {
		op, err := ss.s.beOperatorCached(dt)
		if err != nil {
			return err
		}
		ss.op, ss.step, ss.iter = op, dt, op.Iterative()
		for i, c := range net.cap {
			ss.capDt[i] = c / dt
		}
		ss.red, _ = op.(*linalg.ReducedOperator)
		if ss.s.reduced != nil {
			ss.epoch = ss.s.epoch.Load()
			if ss.red != nil && ss.res == nil {
				ss.res = make([]float64, net.N())
			}
		}
	}
	ambRHS, capDt := ss.s.ambRHS, ss.capDt
	for i := range ss.rhs {
		ss.rhs[i] = power[i] + ambRHS[i] + capDt[i]*temp[i]
	}
	// Solve latency is sampled one step in eight: two clock reads per step
	// would cost ~10% of a small model's triangular solve.
	sample := ss.nsteps&7 == 0
	ss.nsteps++
	var start time.Time
	if sample {
		start = time.Now()
	}
	st := &ss.s.stats
	if ss.iter {
		// Iterative solves land in session scratch and are copied into temp
		// only on success, so a stalled solve cannot corrupt the caller's
		// state.
		if _, err := ss.op.Solve(ss.rhs, temp, ss.sol, &ss.ws); err != nil {
			return fmt.Errorf("rcnet: backward Euler solve: %w", err)
		}
		if sample {
			st.stepSolveNanos.Add(8 * int64(time.Since(start)))
		}
		st.cgSteps.Add(1)
		st.cgIterations.Add(int64(ss.ws.LastIterations))
		copy(temp, ss.sol)
		return nil
	}
	if ss.red != nil {
		// Reduced solves land in session scratch so a sampled residual
		// check can reject the step before the caller's state changes.
		if _, err := ss.op.Solve(ss.rhs, nil, ss.sol, &ss.ws); err != nil {
			return fmt.Errorf("rcnet: backward Euler solve: %w", err)
		}
		if sample {
			st.stepSolveNanos.Add(8 * int64(time.Since(start)))
			if !ss.s.checkReducedResidual(ss.red, ss.rhs, ss.sol, ss.res) {
				// Gate tripped: the solver switched to the full backend.
				// Redo this step through it (temp is still the pre-step
				// state; the refetch at the top picks up the new epoch).
				ss.op = nil
				return ss.stepBE(temp, power, dt)
			}
		}
		st.directSteps.Add(1)
		st.reducedSteps.Add(1)
		copy(temp, ss.sol)
		return nil
	}
	// Direct solves cannot fail after factorization and write the result
	// only in their final permutation scatter, so they may target temp
	// in place (no scratch copy).
	if _, err := ss.op.Solve(ss.rhs, nil, temp, &ss.ws); err != nil {
		return fmt.Errorf("rcnet: backward Euler solve: %w", err)
	}
	if sample {
		st.stepSolveNanos.Add(8 * int64(time.Since(start)))
	}
	st.directSteps.Add(1)
	st.absorbKernels(&ss.ws)
	return nil
}

// DominantTimeConstant estimates the slowest thermal time constant of the
// network (seconds) by power iteration on A⁻¹·C. This is the long-term
// warmup constant discussed in §4.1.1 of the paper. Safe for concurrent use.
func (s *Solver) DominantTimeConstant() float64 {
	sz := s.net.N()
	v := make([]float64, sz)
	linalg.Fill(v, 1)
	ws := s.getWS()
	defer s.putWS(ws)
	solve := func(b, warm []float64) []float64 {
		x, err := s.baseOp().Solve(b, warm, nil, ws)
		if err != nil {
			return s.rescueSolve(b)
		}
		return x
	}
	var lambda float64
	for it := 0; it < 200; it++ {
		// w = A⁻¹ C v, warm-started from the previous iterate.
		w := solve(scaleCopy(s.net.cap, v), v)
		norm := linalg.Norm2(w)
		if norm == 0 {
			return 0
		}
		linalg.Scale(1/norm, w)
		newLambda := linalg.Dot(w, solve(scaleCopy(s.net.cap, w), w))
		if math.Abs(newLambda-lambda) < 1e-12*math.Abs(newLambda) {
			return newLambda
		}
		lambda = newLambda
		v = w
	}
	return lambda
}

func scaleCopy(c, v []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = c[i] * v[i]
	}
	return out
}

// HeatFlowToAmbient returns, for the given temperature field, the heat (W)
// leaving the network through each node's ambient conductance. Summed over
// all nodes at steady state it equals the injected power (energy
// conservation).
func (s *Solver) HeatFlowToAmbient(temp []float64) []float64 {
	out := make([]float64, s.net.N())
	for i := range out {
		out[i] = s.net.ambG[i] * (temp[i] - s.net.ambient)
	}
	return out
}
