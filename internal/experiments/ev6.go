package experiments

import (
	"fmt"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/materials"
)

// fig12AmbientK is the paper's Fig. 12 ambient: "a typical 45 °C".
const fig12AmbientK = 45 + materials.KelvinOffset

// Fig10Result holds the steady-state EV6/gcc maps for both packages (the
// paper's Fig. 10: OIL-SILICON ≈30 °C hotter maximum and ≈55 °C larger
// across-die gradient).
type Fig10Result struct {
	BlockOilC, BlockAirC map[string]float64
	OilMax, AirMax       float64
	OilSpread, AirSpread float64
	OilHot, AirHot       string
	TotalPowerW          float64
	GridOilC, GridAirC   []float64
	GridNX               int
}

// Fig10SteadyMaps runs gcc through the uarch/power pipeline and solves both
// packages' steady states on the average power.
func Fig10SteadyMaps(opt Options) (*Fig10Result, error) {
	cycles := uint64(60_000_000)
	warmup := uint64(5_000_000)
	if opt.Quick {
		cycles, warmup = 10_000_000, 3_000_000
	}
	tr, err := gccPowerTrace(cycles, warmup)
	if err != nil {
		return nil, err
	}
	powers := avgPowerMap(tr)
	oil, err := evOil(hotspot.Uniform, 1.0, false, fig12AmbientK)
	if err != nil {
		return nil, err
	}
	air, err := evAir(1.0, false, fig12AmbientK)
	if err != nil {
		return nil, err
	}
	pOil, err := oil.PowerVector(powers)
	if err != nil {
		return nil, err
	}
	pAir, err := air.PowerVector(powers)
	if err != nil {
		return nil, err
	}
	ro := oil.SteadyState(pOil)
	ra := air.SteadyState(pAir)
	res := &Fig10Result{
		BlockOilC: blockCMap(oil, ro),
		BlockAirC: blockCMap(air, ra),
		OilSpread: ro.Spread(), AirSpread: ra.Spread(),
		TotalPowerW: tr.TotalAverage(),
		GridNX:      48,
		GridOilC:    ro.Grid(48, 48),
		GridAirC:    ra.Grid(48, 48),
	}
	res.OilHot, res.OilMax = ro.Hottest()
	res.AirHot, res.AirMax = ra.Hottest()
	return res, nil
}

func (r *Fig10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 10 — steady EV6/gcc maps, both packages, R_conv = 1.0 K/W\n")
	fmt.Fprintf(&sb, "gcc average chip power: %.1f W\n", r.TotalPowerW)
	fmt.Fprintf(&sb, "max: OIL %.0f °C (%s) vs AIR %.0f °C (%s) — paper: oil ≈30 °C hotter\n",
		r.OilMax, r.OilHot, r.AirMax, r.AirHot)
	fmt.Fprintf(&sb, "across-die spread: OIL %.0f °C vs AIR %.0f °C — paper: ≈55 °C larger for oil\n",
		r.OilSpread, r.AirSpread)
	rows := make([][]string, 0, len(r.BlockOilC))
	for _, name := range hottestBlocks(r.BlockOilC, len(r.BlockOilC)) {
		rows = append(rows, []string{name, f1(r.BlockOilC[name]), f1(r.BlockAirC[name])})
	}
	sb.WriteString(table([]string{"block", "oil(°C)", "air(°C)"}, rows))
	return sb.String()
}

// Fig11Result is the flow-direction table (the paper's Fig. 11): steady EV6
// temperatures under the four oil flow directions, with the hottest unit
// flipping from IntReg to Dcache for the top-to-bottom flow.
type Fig11Result struct {
	Blocks []string
	// TempC[d][i] is block i under Directions[d] (°C).
	TempC [4][]float64
	// Hottest per direction.
	Hottest [4]string
}

// Fig11FlowDirections runs the four-direction sweep on the gcc average
// power.
func Fig11FlowDirections(opt Options) (*Fig11Result, error) {
	cycles := uint64(40_000_000)
	warmup := uint64(5_000_000)
	if opt.Quick {
		cycles, warmup = 8_000_000, 3_000_000
	}
	tr, err := gccPowerTrace(cycles, warmup)
	if err != nil {
		return nil, err
	}
	powers := avgPowerMap(tr)
	res := &Fig11Result{Blocks: floorplan.EV6().Names()}
	for d, dir := range hotspot.Directions {
		m, err := evOil(dir, 1.0, false, fig12AmbientK)
		if err != nil {
			return nil, err
		}
		p, err := m.PowerVector(powers)
		if err != nil {
			return nil, err
		}
		r := m.SteadyState(p)
		res.TempC[d] = r.BlocksC()
		res.Hottest[d], _ = r.Hottest()
	}
	return res, nil
}

func (r *Fig11Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 11 — EV6 steady temperatures under four oil flow directions (°C)\n")
	header := []string{"units", "left to right", "right to left", "bottom to top", "top to bottom"}
	rows := make([][]string, len(r.Blocks))
	for i, b := range r.Blocks {
		rows[i] = []string{b, f2(r.TempC[0][i]), f2(r.TempC[1][i]), f2(r.TempC[2][i]), f2(r.TempC[3][i])}
	}
	sb.WriteString(table(header, rows))
	fmt.Fprintf(&sb, "hottest: %s | %s | %s | %s\n", r.Hottest[0], r.Hottest[1], r.Hottest[2], r.Hottest[3])
	sb.WriteString("(paper: IntReg for the first three, Dcache for top-to-bottom)\n")
	return sb.String()
}

// Fig12Result holds the trace-driven temperature series of the five hottest
// EV6 blocks for both packages at R_conv = 0.3 K/W and 45 °C ambient (the
// paper's Fig. 12, sampled every 10 K cycles ≈ 3.3 µs).
type Fig12Result struct {
	Blocks     []string // the five plotted blocks
	TimesUS    []float64
	OilC, AirC map[string][]float64
	// Summary statistics.
	OilMeanAvgC, AirMeanAvgC float64 // cross-die average temperature
	OilPeakC, AirPeakC       float64
	// HeatCool3ms reports the largest IntReg temperature change over any
	// 3 ms window (the paper: ≈5 °C in 3 ms for AIR-SINK; OIL-SILICON's
	// phases are much longer than 15 ms).
	AirRise3ms, OilRise3ms float64
	SampleIntervalUS       float64
}

// Fig12TempTraces runs the trace-driven co-simulation.
func Fig12TempTraces(opt Options) (*Fig12Result, error) {
	cycles := uint64(120_000_000) // 12 000 samples
	warmup := uint64(5_000_000)
	if opt.Quick {
		cycles, warmup = 20_000_000, 3_000_000
	}
	tr, err := gccPowerTrace(cycles, warmup)
	if err != nil {
		return nil, err
	}
	oil, err := evOil(hotspot.Uniform, 0.3, false, fig12AmbientK)
	if err != nil {
		return nil, err
	}
	air, err := evAir(0.3, false, fig12AmbientK)
	if err != nil {
		return nil, err
	}
	fp := floorplan.EV6()

	// Both packages replay the same trace, each warm-started from its own
	// average-power steady state.
	pts, err := warmReplay(tr, oil, air)
	if err != nil {
		return nil, err
	}
	oilPts, airPts := pts[0], pts[1]

	// Pick the five hottest blocks by time-average air temperature.
	meanC := map[string]float64{}
	for i, name := range fp.Names() {
		var s float64
		for _, p := range airPts {
			s += p.BlockC[i]
		}
		meanC[name] = s / float64(len(airPts))
	}
	blocks := hottestBlocks(meanC, 5)

	res := &Fig12Result{
		Blocks:           blocks,
		OilC:             map[string][]float64{},
		AirC:             map[string][]float64{},
		SampleIntervalUS: tr.Interval * 1e6,
	}
	for _, p := range oilPts {
		res.TimesUS = append(res.TimesUS, p.Time*1e6)
	}
	for _, b := range blocks {
		bi := fp.Index(b)
		for _, p := range oilPts {
			res.OilC[b] = append(res.OilC[b], p.BlockC[bi])
			if p.BlockC[bi] > res.OilPeakC {
				res.OilPeakC = p.BlockC[bi]
			}
		}
		for _, p := range airPts {
			res.AirC[b] = append(res.AirC[b], p.BlockC[bi])
			if p.BlockC[bi] > res.AirPeakC {
				res.AirPeakC = p.BlockC[bi]
			}
		}
	}
	// Cross-die averages (area-weighted) at the end of the run.
	res.OilMeanAvgC = areaAvgC(fp, oilPts[len(oilPts)-1].BlockC)
	res.AirMeanAvgC = areaAvgC(fp, airPts[len(airPts)-1].BlockC)

	// Largest IntReg swing in a 3 ms window.
	rise3 := func(series []float64, intervalS float64) float64 {
		win := int(3e-3 / intervalS)
		if win < 1 {
			win = 1
		}
		var best float64
		for i := 0; i+win < len(series); i++ {
			if d := series[i+win] - series[i]; d > best {
				best = d
			}
		}
		return best
	}
	ir := "IntReg"
	if _, ok := res.AirC[ir]; !ok {
		ir = blocks[0]
	}
	res.AirRise3ms = rise3(res.AirC[ir], tr.Interval)
	res.OilRise3ms = rise3(res.OilC[ir], tr.Interval)
	return res, nil
}

func (r *Fig12Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 12 — EV6/gcc temperature traces, R_conv = 0.3 K/W, ambient 45 °C\n")
	fmt.Fprintf(&sb, "sampling every %.2f µs (paper: ≈3.3 µs per 10K cycles)\n", r.SampleIntervalUS)
	fmt.Fprintf(&sb, "plotted blocks (hottest five): %s\n", strings.Join(r.Blocks, ", "))
	fmt.Fprintf(&sb, "peak: OIL %.0f °C vs AIR %.0f °C (paper: ≈170 vs ≈85)\n", r.OilPeakC, r.AirPeakC)
	fmt.Fprintf(&sb, "cross-die average: OIL %.0f °C vs AIR %.0f °C (about the same, per the paper)\n",
		r.OilMeanAvgC, r.AirMeanAvgC)
	fmt.Fprintf(&sb, "largest 3 ms IntReg rise: AIR %.1f °C, OIL %.1f °C (paper: ≈5 °C in 3 ms)\n",
		r.AirRise3ms, r.OilRise3ms)
	// A small excerpt of the series.
	rows := make([][]string, 0, 12)
	stride := len(r.TimesUS) / 10
	if stride == 0 {
		stride = 1
	}
	b0 := r.Blocks[0]
	for i := 0; i < len(r.TimesUS); i += stride {
		rows = append(rows, []string{f1(r.TimesUS[i]), f1(r.AirC[b0][i]), f1(r.OilC[b0][i])})
	}
	sb.WriteString(table([]string{"t(µs)", "air " + b0, "oil " + b0}, rows))
	return sb.String()
}
