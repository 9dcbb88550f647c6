package experiments

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// handReplay is the reference for every trace-driven figure: starting from
// the model's average-power steady state, step one session through
// tr.Rows in order, one backward-Euler step of tr.Interval per row, and
// record the time and block temperatures (°C, floorplan order) after every
// step plus the initial state.
func handReplay(t *testing.T, m *hotspot.Model, tr *trace.PowerTrace) (times []float64, blockC [][]float64) {
	t.Helper()
	pAvg, err := m.PowerVector(avgPowerMap(tr))
	if err != nil {
		t.Fatal(err)
	}
	temps := m.SteadyState(pAvg).Temps
	cols := m.TraceColumns(tr.Names)
	bp := make([]float64, m.Floorplan().N())
	se := m.NewSession()
	now := 0.0
	record := func() {
		times = append(times, now)
		blockC = append(blockC, m.NewResult(temps).BlocksC())
	}
	record()
	for _, row := range tr.Rows {
		clear(bp)
		for c, bi := range cols {
			if bi >= 0 {
				bp[bi] = row[c]
			}
		}
		if err := se.StepBlockPower(temps, bp, tr.Interval); err != nil {
			t.Fatal(err)
		}
		now += tr.Interval
		record()
	}
	return times, blockC
}

// TestFig12ReplaysTraceRowsInOrder: every Fig. 12 point must be row k of
// the gcc trace stepped in order. Looking rows up by accumulated time
// (floor(t/interval) with t a float sum of 3.33 µs intervals) used to
// replay the previous row on about a fifth of the steps.
func TestFig12ReplaysTraceRowsInOrder(t *testing.T) {
	r, err := Fig12TempTraces(quick)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gccPowerTrace(20_000_000, 3_000_000) // Fig12TempTraces' Quick trace
	if err != nil {
		t.Fatal(err)
	}
	oil, err := evOil(hotspot.Uniform, 0.3, false, fig12AmbientK)
	if err != nil {
		t.Fatal(err)
	}
	air, err := evAir(0.3, false, fig12AmbientK)
	if err != nil {
		t.Fatal(err)
	}
	fp := floorplan.EV6()
	for _, pkg := range []struct {
		m      *hotspot.Model
		series map[string][]float64
	}{{oil, r.OilC}, {air, r.AirC}} {
		times, want := handReplay(t, pkg.m, tr)
		if len(r.TimesUS) != len(times) {
			t.Fatalf("%s: %d points, hand loop %d", pkg.m.Config().Package, len(r.TimesUS), len(times))
		}
		mismatched := 0
		for k, tm := range times {
			same := r.TimesUS[k] == tm*1e6
			for _, b := range r.Blocks {
				same = same && pkg.series[b][k] == want[k][fp.Index(b)]
			}
			if !same {
				mismatched++
			}
		}
		if mismatched > 0 {
			t.Fatalf("%s: %d of %d points differ from the in-order row replay",
				pkg.m.Config().Package, mismatched, len(times))
		}
	}
}

// TestFig8ReplaysTraceRowsInOrder: the Fig. 8 pulse response must equal
// the in-order row replay of its 1 ms pulse train bit for bit.
func TestFig8ReplaysTraceRowsInOrder(t *testing.T) {
	r, err := Fig8ShortTransient(quick)
	if err != nil {
		t.Fatal(err)
	}
	fp := floorplan.EV6()
	const hot = "Dcache" // Fig8ShortTransient's pulsed block and watts
	tr, err := trace.PulseTrain(fp.Names(), hot, 2.0e6*fp.Blocks[fp.Index(hot)].Area(), 15e-3, 85e-3, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	oil, err := evOil(hotspot.Uniform, 1.0, false, warmupAmbientK)
	if err != nil {
		t.Fatal(err)
	}
	air, err := evAir(1.0, false, warmupAmbientK)
	if err != nil {
		t.Fatal(err)
	}
	bi := fp.Index(hot)
	for _, pkg := range []struct {
		m    *hotspot.Model
		rise []float64
	}{{oil, r.OilRiseK}, {air, r.AirRiseK}} {
		times, want := handReplay(t, pkg.m, tr)
		if len(r.Times) != len(times) || len(pkg.rise) != len(want) {
			t.Fatalf("%s: %d points, hand loop %d", pkg.m.Config().Package, len(pkg.rise), len(want))
		}
		minT := want[0][bi]
		for _, v := range want {
			minT = min(minT, v[bi])
		}
		for k := range want {
			if r.Times[k] != times[k] || pkg.rise[k] != want[k][bi]-minT {
				t.Fatalf("%s point %d: (%.17g s, %.17g K), hand loop (%.17g s, %.17g K)",
					pkg.m.Config().Package, k, r.Times[k], pkg.rise[k], times[k], want[k][bi]-minT)
			}
		}
	}
}
