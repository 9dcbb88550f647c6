package hotspot

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/materials"
	"repro/internal/trace"
)

// paperDie is the validation die of §3.2: 20×20×0.5 mm.
func paperDie() *floorplan.Floorplan {
	return floorplan.UniformDie("die", 0.020, 0.020)
}

func oilModel(t *testing.T, fp *floorplan.Floorplan, dir FlowDirection, targetR float64, secondary bool) *Model {
	t.Helper()
	m, err := New(Config{
		Floorplan: fp,
		Package:   OilSilicon,
		Oil:       OilConfig{Direction: dir, TargetRconv: targetR},
		Secondary: SecondaryPathConfig{Enabled: secondary},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func airModel(t *testing.T, fp *floorplan.Floorplan, rconvec float64, secondary bool) *Model {
	t.Helper()
	m, err := New(Config{
		Floorplan: fp,
		Package:   AirSink,
		Air:       AirSinkConfig{RConvec: rconvec},
		Secondary: SecondaryPathConfig{Enabled: secondary},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOilRconvMatchesCorrelation(t *testing.T) {
	// Uniform-flow model over the paper die must reproduce eq. 1 exactly.
	m := oilModel(t, paperDie(), Uniform, 0, false)
	flow := materials.LaminarFlow{Fluid: materials.MineralOil, Velocity: 10, PlateLen: 0.020}
	want := flow.ConvectionResistance(4e-4)
	if math.Abs(m.RconvEffective()-want)/want > 1e-9 {
		t.Fatalf("R_conv = %g, want %g", m.RconvEffective(), want)
	}
}

func TestOilDirectionalRconvMatchesUniform(t *testing.T) {
	// Area-weighted directional h must integrate to the same overall R_conv
	// as the uniform model (the partition property of eq. 8 vs eq. 2).
	for _, dir := range Directions {
		m := oilModel(t, paperDie(), dir, 0, false)
		u := oilModel(t, paperDie(), Uniform, 0, false)
		if math.Abs(m.RconvEffective()-u.RconvEffective())/u.RconvEffective() > 1e-9 {
			t.Fatalf("%v: R_conv %g vs uniform %g", dir, m.RconvEffective(), u.RconvEffective())
		}
	}
}

func TestTargetRconvRescaling(t *testing.T) {
	m := oilModel(t, paperDie(), Uniform, 0.3, false)
	if math.Abs(m.RconvEffective()-0.3) > 1e-12 {
		t.Fatalf("target R_conv not honored: %g", m.RconvEffective())
	}
	// Steady state of a single uniform block: ΔT = P·(R_si/2 + R_conv).
	p, err := m.PowerVector(map[string]float64{"die": 100})
	if err != nil {
		t.Fatal(err)
	}
	res := m.SteadyState(p)
	rSiHalf := materials.VerticalResistance(materials.Silicon, 0.25e-3, 4e-4)
	want := materials.KToC(m.Config().AmbientK) + 100*(rSiHalf+0.3)
	if math.Abs(res.BlockC("die")-want) > 1e-6 {
		t.Fatalf("steady T = %g °C, want %g", res.BlockC("die"), want)
	}
}

func TestAirSinkSteadyUniform(t *testing.T) {
	// A uniform die under AIR-SINK: die temperature ≈ ambient + P·(R_conv +
	// conduction stack). The stack resistance is small, so the result is
	// dominated by R_convec.
	m := airModel(t, paperDie(), 1.0, false)
	p, _ := m.PowerVector(map[string]float64{"die": 50})
	res := m.SteadyState(p)
	rise := res.BlockC("die") - materials.KToC(m.Config().AmbientK)
	if rise < 50*1.0 || rise > 50*1.4 {
		t.Fatalf("die rise %g °C for 50 W at R_convec=1, want within [50, 70]", rise)
	}
}

func TestSameRconvDifferentGradient(t *testing.T) {
	// Paper contribution #3: with the same equivalent R_conv, OIL-SILICON
	// shows a much larger on-die gradient and hotter hot spot than
	// AIR-SINK, while average temperatures stay comparable.
	fp := floorplan.EV6()
	oil := oilModel(t, fp, Uniform, 1.0, false)
	air := airModel(t, fp, 1.0, false)
	power := map[string]float64{"IntReg": 2.0} // 2 W in ~1 mm² — hot spot
	po, _ := oil.PowerVector(power)
	pa, _ := air.PowerVector(power)
	ro := oil.SteadyState(po)
	ra := air.SteadyState(pa)

	_, hotOil := ro.Hottest()
	_, hotAir := ra.Hottest()
	if hotOil <= hotAir {
		t.Fatalf("oil hot spot %g °C should exceed air hot spot %g °C", hotOil, hotAir)
	}
	if ro.Spread() <= ra.Spread() {
		t.Fatalf("oil spread %g should exceed air spread %g", ro.Spread(), ra.Spread())
	}
	// Cool spot: copper spreading warms remote blocks under AIR-SINK more
	// than the oil config does (paper Fig. 6b).
	_, coolOil := ro.Coolest()
	_, coolAir := ra.Coolest()
	if coolOil >= coolAir {
		t.Fatalf("oil cool spot %g should be cooler than air cool spot %g", coolOil, coolAir)
	}
}

func TestShortTermTimeConstants(t *testing.T) {
	// §4.1.2: τ_short(AIR-SINK) ≈ R_si·C_si is much shorter than
	// τ_short(OIL-SILICON) ≈ R_conv·C_si. Measure by the temperature rise of
	// a pulsed block over 10 ms from the warm steady state.
	fp := floorplan.EV6()
	oil := oilModel(t, fp, Uniform, 1.0, false)
	air := airModel(t, fp, 1.0, false)

	riseAfter := func(m *Model) float64 {
		// Steady state with average power, then a 10 ms burst.
		avg := map[string]float64{"IntReg": 0.3}
		burst := map[string]float64{"IntReg": 2.0}
		pAvg, _ := m.PowerVector(avg)
		pBurst, _ := m.PowerVector(burst)
		state := m.SteadyState(pAvg).Temps
		before := m.NewResult(state).BlockC("IntReg")
		if err := m.Transient(state, pBurst, 10e-3, 1e-4); err != nil {
			t.Fatal(err)
		}
		return m.NewResult(state).BlockC("IntReg") - before
	}
	dAir := riseAfter(air)
	dOil := riseAfter(oil)
	// AIR-SINK responds faster: larger fraction of its (smaller) steady
	// rise happens within 10 ms. Compare normalized approach-to-steady.
	fracAir := approachFraction(t, air, 10e-3)
	fracOil := approachFraction(t, oil, 10e-3)
	if fracAir <= fracOil {
		t.Fatalf("AIR-SINK should approach steady faster in 10ms: air %.3f vs oil %.3f (rises %g, %g)",
			fracAir, fracOil, dAir, dOil)
	}
}

// approachFraction measures how far (0..1) the hot block moves toward its
// new steady state within dur after a power step.
func approachFraction(t *testing.T, m *Model, dur float64) float64 {
	t.Helper()
	avg := map[string]float64{"IntReg": 0.3}
	burst := map[string]float64{"IntReg": 2.0}
	pAvg, _ := m.PowerVector(avg)
	pBurst, _ := m.PowerVector(burst)
	state := m.SteadyState(pAvg).Temps
	t0 := m.NewResult(state).BlockK("IntReg")
	tInf := m.SteadyState(pBurst).BlockK("IntReg")
	if err := m.Transient(state, pBurst, dur, dur/200); err != nil {
		t.Fatal(err)
	}
	t1 := m.NewResult(state).BlockK("IntReg")
	return (t1 - t0) / (tInf - t0)
}

func TestLongTermWarmupFasterForOil(t *testing.T) {
	// §4.1.1: OIL-SILICON reaches steady state much faster from ambient
	// because it lacks the heatsink's huge capacitance.
	fp := floorplan.EV6()
	oil := oilModel(t, fp, Uniform, 1.0, false)
	air := airModel(t, fp, 1.0, false)
	if tauOil, tauAir := oil.DominantTimeConstant(), air.DominantTimeConstant(); tauOil >= tauAir/10 {
		t.Fatalf("oil warmup τ = %g s should be ≪ air τ = %g s", tauOil, tauAir)
	}
}

func TestFlowDirectionMovesHeat(t *testing.T) {
	// Paper §4.2/Fig. 11: a block near the leading edge is cooled best.
	// IntReg sits near the top of the EV6 die: top-to-bottom flow must cool
	// it better than bottom-to-top flow.
	fp := floorplan.EV6()
	power := map[string]float64{"IntReg": 2.0, "Dcache": 2.0}
	tempFor := func(dir FlowDirection) (float64, float64) {
		m := oilModel(t, fp, dir, 0, false)
		p, _ := m.PowerVector(power)
		r := m.SteadyState(p)
		return r.BlockC("IntReg"), r.BlockC("Dcache")
	}
	irTop, dcTop := tempFor(TopToBottom)
	irBot, dcBot := tempFor(BottomToTop)
	if irTop >= irBot {
		t.Fatalf("top-to-bottom flow should cool IntReg: %g vs %g", irTop, irBot)
	}
	// Both hot blocks sit in the upper half of the EV6 die, so both are
	// cooler under top-to-bottom flow (paper Fig. 11 shows exactly this:
	// Dcache 82.4 °C top-to-bottom vs 100.5 °C bottom-to-top). But IntReg,
	// being closer to the top edge, gains relatively more.
	if dcTop >= dcBot {
		t.Fatalf("top-to-bottom flow should cool Dcache too: %g vs %g", dcTop, dcBot)
	}
	gainIR := irBot - irTop
	gainDC := dcBot - dcTop
	if gainIR <= gainDC {
		t.Fatalf("IntReg (nearer the top edge) should gain more from top-to-bottom flow: %g vs %g", gainIR, gainDC)
	}
}

func TestSecondaryPathMattersOnlyForOil(t *testing.T) {
	// Paper Fig. 5: removing the secondary path changes OIL-SILICON
	// temperatures by many degrees but AIR-SINK by <1%.
	fp := floorplan.Athlon()
	powers := floorplan.AthlonPowers()

	hot := func(m *Model) float64 {
		p, err := m.PowerVector(powers)
		if err != nil {
			t.Fatal(err)
		}
		_, h := m.SteadyState(p).Hottest()
		return h
	}
	oilWith := hot(oilModel(t, fp, Uniform, 0, true))
	oilWithout := hot(oilModel(t, fp, Uniform, 0, false))
	airWith := hot(airModel(t, fp, 0.3, true))
	airWithout := hot(airModel(t, fp, 0.3, false))

	if d := oilWithout - oilWith; d < 5 {
		t.Fatalf("OIL-SILICON secondary path should matter: Δhot = %g °C", d)
	}
	if d := math.Abs(airWithout - airWith); d > 1.0 {
		t.Fatalf("AIR-SINK secondary path should be negligible: Δhot = %g °C", d)
	}
}

func TestSecondaryHeatFraction(t *testing.T) {
	fp := floorplan.Athlon()
	m := oilModel(t, fp, Uniform, 0, true)
	p, _ := m.PowerVector(floorplan.AthlonPowers())
	res := m.SteadyState(p)
	frac := m.SecondaryHeatFraction(p, res)
	if frac < 0.1 || frac > 0.9 {
		t.Fatalf("secondary path should carry a significant share for oil: %.2f", frac)
	}
	m2 := airModel(t, fp, 0.3, true)
	p2, _ := m2.PowerVector(floorplan.AthlonPowers())
	res2 := m2.SteadyState(p2)
	if f2 := m2.SecondaryHeatFraction(p2, res2); f2 > 0.05 {
		t.Fatalf("secondary fraction for air-sink should be tiny: %.3f", f2)
	}
}

func TestPowerVectorValidation(t *testing.T) {
	m := oilModel(t, paperDie(), Uniform, 0, false)
	if _, err := m.PowerVector(map[string]float64{"nope": 1}); err == nil {
		t.Fatal("unknown block should error")
	}
	if _, err := m.PowerVector(map[string]float64{"die": -1}); err == nil {
		t.Fatal("negative power should error")
	}
	if _, err := m.BlockPowerVector([]float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing floorplan should fail")
	}
	fp := paperDie()
	if _, err := New(Config{Floorplan: fp, Package: AirSink, Air: AirSinkConfig{SpreaderSide: 0.001}}); err == nil {
		t.Fatal("spreader smaller than die should fail")
	}
	if _, err := New(Config{Floorplan: fp, Package: OilSilicon, Oil: OilConfig{Velocity: -2}}); err == nil {
		t.Fatal("negative velocity should fail")
	}
	if _, err := New(Config{Floorplan: fp, Package: PackageKind(42)}); err == nil {
		t.Fatal("unknown package should fail")
	}
}

func TestResultAccessors(t *testing.T) {
	fp := floorplan.EV6()
	m := airModel(t, fp, 0.5, false)
	p, _ := m.PowerVector(map[string]float64{"IntReg": 2, "L2": 5})
	r := m.SteadyState(p)
	name, hot := r.Hottest()
	if name != "IntReg" {
		t.Fatalf("hottest = %q, want IntReg", name)
	}
	if hot <= r.AverageC() {
		t.Fatal("hottest must exceed average")
	}
	if r.Spread() <= 0 {
		t.Fatal("spread must be positive")
	}
	if math.IsNaN(r.NodeTempK("sink")) {
		t.Fatal("sink node should exist for air model")
	}
	if !math.IsNaN(r.NodeTempK("no-such-node")) {
		t.Fatal("missing node should give NaN")
	}
	g := r.Grid(32, 32)
	if len(g) != 1024 {
		t.Fatalf("grid size %d", len(g))
	}
	// The grid cell at IntReg's centroid matches the block temperature.
	b := fp.Blocks[fp.Index("IntReg")]
	ix := int(b.CenterX() / fp.Width() * 32)
	iy := int(b.CenterY() / fp.Height() * 32)
	if math.Abs(g[iy*32+ix]-r.BlockC("IntReg")) > 1e-9 {
		t.Fatalf("grid value %g vs block %g", g[iy*32+ix], r.BlockC("IntReg"))
	}
}

// TestRunTracePulse: a 2 W IntReg pulse replayed as trace rows records one
// point per row plus the initial state, peaking when the power switches off.
func TestRunTracePulse(t *testing.T) {
	fp := floorplan.EV6()
	m := oilModel(t, fp, Uniform, 1.0, false)
	irIdx := fp.Index("IntReg")
	// 2 W on IntReg for 50 ms, then 50 ms off, in 5 ms rows.
	tr, err := trace.PulseTrain(fp.Names(), "IntReg", 2, 0.05, 0.05, 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 21 {
		t.Fatalf("%d trace points", len(pts))
	}
	peak := pts[10].BlockC[irIdx]
	if peak <= pts[1].BlockC[irIdx] || pts[20].BlockC[irIdx] >= peak {
		t.Fatal("pulse trace shape wrong")
	}
}

func TestBoundaryCapacitanceAblation(t *testing.T) {
	// Without the oil boundary-layer capacitance the very-short-term
	// response changes (the paper notes silicon temperature stays almost
	// constant for very short pulses because C_oil is so small; removing
	// C_oil entirely removes that effect). Steady state must be identical.
	fp := paperDie()
	with := oilModel(t, fp, Uniform, 0, false)
	without, err := New(Config{
		Floorplan: fp,
		Package:   OilSilicon,
		Oil:       OilConfig{Direction: Uniform, DisableBoundaryCapacitance: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := with.PowerVector(map[string]float64{"die": 100})
	p2, _ := without.PowerVector(map[string]float64{"die": 100})
	s1 := with.SteadyState(p1).BlockC("die")
	s2 := without.SteadyState(p2).BlockC("die")
	if math.Abs(s1-s2) > 1e-6 {
		t.Fatalf("steady state must not depend on C_oil: %g vs %g", s1, s2)
	}
}

func TestEV6ModelNodeCount(t *testing.T) {
	fp := floorplan.EV6()
	m := oilModel(t, fp, LeftToRight, 0, true)
	// silicon 18 + oil 18 + icx 18 + c4 18 + substrate + solder + pcb +
	// oil:pcb = 76.
	if got := m.NodeCount(); got != 76 {
		t.Fatalf("node count %d, want 76", got)
	}
	a := airModel(t, fp, 0.8, false)
	// silicon 18 + tim 18 + spreader 18 + 4 periphery + sink = 59.
	if got := a.NodeCount(); got != 59 {
		t.Fatalf("air node count %d, want 59", got)
	}
}
