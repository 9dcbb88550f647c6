package hotspot_test

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// ExampleNew builds the two cooling configurations the paper contrasts and
// compares their steady states at the same overall convection resistance.
func ExampleNew() {
	fp := floorplan.EV6()
	power := map[string]float64{"Dcache": 16.0} // ≈2 W/mm²

	oil, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.OilSilicon,
		AmbientK:  295.15, // 22 °C
		Oil:       hotspot.OilConfig{TargetRconv: 1.0},
	})
	if err != nil {
		panic(err)
	}
	air, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.AirSink,
		AmbientK:  295.15,
		Air:       hotspot.AirSinkConfig{RConvec: 1.0},
	})
	if err != nil {
		panic(err)
	}
	for _, m := range []*hotspot.Model{oil, air} {
		vec, err := m.PowerVector(power)
		if err != nil {
			panic(err)
		}
		res := m.SteadyState(vec)
		name, _ := res.Hottest()
		fmt.Printf("%s: hottest block %s, R_conv %.2f K/W\n",
			m.Config().Package, name, m.RconvEffective())
	}
	// Output:
	// OIL-SILICON: hottest block Dcache, R_conv 1.00 K/W
	// AIR-SINK: hottest block Dcache, R_conv 1.00 K/W
}

// ExampleReplayBatchResults replays one power trace through both cooling
// configurations in a single batched call: 100 W for the first half
// second, then nothing, in 0.25 s rows.
func ExampleReplayBatchResults() {
	fp := floorplan.UniformDie("die", 0.02, 0.02)
	tr, err := trace.New(fp.Names(), 0.25)
	if err != nil {
		panic(err)
	}
	for _, w := range []float64{100, 100, 0, 0} {
		if err := tr.Append([]float64{w}); err != nil {
			panic(err)
		}
	}
	var jobs []hotspot.ReplayJob
	for _, pkg := range []hotspot.PackageKind{hotspot.OilSilicon, hotspot.AirSink} {
		m, err := hotspot.New(hotspot.Config{Floorplan: fp, Package: pkg, AmbientK: 300})
		if err != nil {
			panic(err)
		}
		jobs = append(jobs, hotspot.ReplayJob{Model: m, Rows: tr.Reader()}) // nil Temps: start at ambient
	}
	results, errs := hotspot.ReplayBatchResults(jobs, 0)
	for j, pts := range results {
		if errs[j] != nil {
			panic(errs[j])
		}
		fmt.Printf("%s:", jobs[j].Model.Config().Package)
		for _, p := range pts {
			fmt.Printf(" %.0fK", p.BlockC[0]-26.85)
		}
		fmt.Println()
	}
	// Output:
	// OIL-SILICON: 0K 41K 65K 40K 25K
	// AIR-SINK: 0K 4K 5K 1K 0K
}

// ExampleSession_ReplayRows streams a power trace through a per-goroutine
// simulation session, one backward-Euler step per row. The row source here
// is an in-memory trace; a network stream decoded with trace.NewDecoder
// replays bit-identically through the same path.
func ExampleSession_ReplayRows() {
	model, err := hotspot.New(hotspot.Config{
		Floorplan: floorplan.EV6(),
		Package:   hotspot.OilSilicon,
		Oil:       hotspot.OilConfig{TargetRconv: 1.0},
	})
	if err != nil {
		panic(err)
	}
	// 20 ms of 3 W bursts into the integer register file, 1 ms rows.
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), "IntReg", 3.0, 5e-3, 5e-3, 1e-3, 2)
	if err != nil {
		panic(err)
	}
	session := model.NewSession()
	temps := model.AmbientState()
	points, err := session.ReplayRows(temps, tr.Reader())
	if err != nil {
		panic(err)
	}
	first := points[0].BlockC[floorplan.EV6().Index("IntReg")]
	last := points[len(points)-1].BlockC[floorplan.EV6().Index("IntReg")]
	fmt.Println("points recorded:", len(points))
	fmt.Println("IntReg warmed up:", last > first)
	// Output:
	// points recorded: 21
	// IntReg warmed up: true
}
