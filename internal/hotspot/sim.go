package hotspot

import (
	"fmt"
	"math"

	"repro/internal/materials"
	"repro/internal/rcnet"
)

// PowerVector expands a per-block power map (W, keyed by block name) into a
// full node-power vector. Unknown block names are an error; blocks absent
// from the map dissipate zero.
func (m *Model) PowerVector(perBlock map[string]float64) ([]float64, error) {
	p := make([]float64, m.net.N())
	fp := m.cfg.Floorplan
	for name, w := range perBlock {
		bi := fp.Index(name)
		if bi < 0 {
			return nil, fmt.Errorf("hotspot: power for unknown block %q", name)
		}
		if w < 0 {
			return nil, fmt.Errorf("hotspot: negative power %g for block %q", w, name)
		}
		p[m.blockNode[bi]] = w
	}
	return p, nil
}

// BlockPowerVector expands per-block powers given in floorplan order.
func (m *Model) BlockPowerVector(perBlock []float64) ([]float64, error) {
	if len(perBlock) != m.cfg.Floorplan.N() {
		return nil, fmt.Errorf("hotspot: got %d block powers, floorplan has %d", len(perBlock), m.cfg.Floorplan.N())
	}
	p := make([]float64, m.net.N())
	for bi, w := range perBlock {
		if w < 0 {
			return nil, fmt.Errorf("hotspot: negative power %g for block %d", w, bi)
		}
		p[m.blockNode[bi]] = w
	}
	return p, nil
}

// Result holds node temperatures (Kelvin) for one model state.
type Result struct {
	model *Model
	Temps []float64 // all node temperatures, K
}

// NewResult wraps a raw temperature vector.
func (m *Model) NewResult(temps []float64) *Result {
	return &Result{model: m, Temps: temps}
}

// BlockK returns the named block's silicon temperature in Kelvin.
func (r *Result) BlockK(name string) float64 {
	bi := r.model.cfg.Floorplan.Index(name)
	if bi < 0 {
		panic(fmt.Sprintf("hotspot: unknown block %q", name))
	}
	return r.Temps[r.model.blockNode[bi]]
}

// BlockC returns the named block's silicon temperature in Celsius.
func (r *Result) BlockC(name string) float64 { return materials.KToC(r.BlockK(name)) }

// BlocksC returns all block temperatures in floorplan order, Celsius.
func (r *Result) BlocksC() []float64 {
	out := make([]float64, len(r.model.blockNode))
	for i, n := range r.model.blockNode {
		out[i] = materials.KToC(r.Temps[n])
	}
	return out
}

// BlocksK returns all block temperatures in floorplan order, Kelvin.
func (r *Result) BlocksK() []float64 {
	out := make([]float64, len(r.model.blockNode))
	for i, n := range r.model.blockNode {
		out[i] = r.Temps[n]
	}
	return out
}

// Hottest returns the name and Celsius temperature of the hottest block.
func (r *Result) Hottest() (string, float64) {
	temps := r.BlocksC()
	bi, bv := 0, temps[0]
	for i, v := range temps {
		if v > bv {
			bi, bv = i, v
		}
	}
	return r.model.cfg.Floorplan.Blocks[bi].Name, bv
}

// Coolest returns the name and Celsius temperature of the coolest block.
func (r *Result) Coolest() (string, float64) {
	temps := r.BlocksC()
	bi, bv := 0, temps[0]
	for i, v := range temps {
		if v < bv {
			bi, bv = i, v
		}
	}
	return r.model.cfg.Floorplan.Blocks[bi].Name, bv
}

// Spread returns the across-die temperature difference max−min (K or °C,
// they are the same for a difference).
func (r *Result) Spread() float64 {
	_, hi := r.Hottest()
	_, lo := r.Coolest()
	return hi - lo
}

// AverageC returns the area-weighted average die temperature in Celsius
// (the paper compares cross-die averages between the two packages).
func (r *Result) AverageC() float64 {
	fp := r.model.cfg.Floorplan
	var sum, area float64
	for i, b := range fp.Blocks {
		sum += materials.KToC(r.Temps[r.model.blockNode[i]]) * b.Area()
		area += b.Area()
	}
	return sum / area
}

// Grid rasterizes the block temperatures onto an nx×ny Celsius grid
// (row-major, row 0 at the die bottom). Used by the map renderers and the
// IR camera model.
func (r *Result) Grid(nx, ny int) []float64 {
	cells := r.model.cfg.Floorplan.Rasterize(nx, ny)
	out := make([]float64, len(cells))
	blocks := r.BlocksC()
	for i, bi := range cells {
		if bi < 0 {
			out[i] = materials.KToC(r.model.net.Ambient())
		} else {
			out[i] = blocks[bi]
		}
	}
	return out
}

// BlocksCInto writes the block temperatures (°C, floorplan order) of a raw
// node-temperature vector into dst (length = block count). It is the
// allocation-free form of NewResult(temps).BlocksC() for per-step loops.
func (m *Model) BlocksCInto(temps, dst []float64) {
	for bi, node := range m.blockNode {
		dst[bi] = materials.KToC(temps[node])
	}
}

// SteadyState solves the equilibrium temperatures for the node-power vector
// (from PowerVector/BlockPowerVector).
func (m *Model) SteadyState(power []float64) *Result {
	return m.NewResult(m.solver.SteadyState(power))
}

// AmbientState returns an all-ambient temperature vector (cold start).
func (m *Model) AmbientState() []float64 { return m.solver.AmbientVector() }

// Transient advances the temperature state in place by duration seconds
// under constant power, using backward Euler with the given step. Backward
// Euler is the default because OIL-SILICON networks are stiff (the tiny oil
// boundary-layer capacitance sits next to the silicon mass).
func (m *Model) Transient(temps, power []float64, duration, dt float64) error {
	return m.solver.TransientBE(temps, power, duration, dt)
}

// TransientAdaptive advances the state with the HotSpot-style adaptive RK4
// integrator (accuracy reference; slower on stiff oil networks).
func (m *Model) TransientAdaptive(temps, power []float64, duration float64, absTol float64) error {
	_, err := m.solver.Transient(temps, power, duration, rcnet.TransientOptions{AbsTol: absTol})
	return err
}

// TracePoint is one sampled instant of a trace-driven simulation.
type TracePoint struct {
	Time   float64
	BlockC []float64 // block temperatures in floorplan order, °C
}

// DominantTimeConstant returns the network's slowest thermal time constant
// in seconds (the long-term warmup constant of §4.1.1).
func (m *Model) DominantTimeConstant() float64 { return m.solver.DominantTimeConstant() }

// SolverBackend names the linear-solver backend the model compiled onto
// ("dense", "cholesky" or "sparse").
func (m *Model) SolverBackend() string { return m.solver.Backend() }

// SolverStats snapshots the model's per-path solver counters
// (factorizations, factor reuses, direct vs CG steps, cumulative step-solve
// time) aggregated over every session of the model.
func (m *Model) SolverStats() rcnet.SolverStats { return m.solver.Stats() }

// SecondaryHeatFraction returns the fraction of total dissipated power that
// leaves through the secondary path (PCB side) at the given steady state.
// Returns 0 when the secondary path is disabled.
func (m *Model) SecondaryHeatFraction(power []float64, r *Result) float64 {
	flows := m.solver.HeatFlowToAmbient(r.Temps)
	var total, secondary float64
	for i, q := range flows {
		total += q
		name := m.net.Name(i)
		if name == "pcb" || name == "oil:pcb" {
			secondary += q
		}
	}
	if total == 0 {
		return 0
	}
	return secondary / total
}

// NodeTempK returns the temperature of an arbitrary named node (e.g. "sink",
// "pcb", "oil:IntReg") from a result, or NaN if absent.
func (r *Result) NodeTempK(name string) float64 {
	i := r.model.net.Index(name)
	if i < 0 {
		return math.NaN()
	}
	return r.Temps[i]
}
