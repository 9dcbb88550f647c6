package hotspot

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/rcnet"
	"repro/internal/trace"
)

// Parity tests for the lockstep paths at the hotspot layer: the batched
// replay must reproduce per-job Session.ReplayRows bit for bit at any worker
// count, and the K-wide BatchSession must match Session.

func lockstepModels(t *testing.T) (*Model, *Model) {
	t.Helper()
	fp := floorplan.EV6()
	oil, err := New(Config{
		Floorplan: fp,
		Package:   OilSilicon,
		Oil:       OilConfig{Direction: LeftToRight, TargetRconv: 0.3},
		Secondary: SecondaryPathConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	air, err := New(Config{Floorplan: fp, Package: AirSink, Air: AirSinkConfig{RConvec: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	return oil, air
}

func pulse(t *testing.T, block string) *trace.PowerTrace {
	t.Helper()
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), block, 4, 2e-3, 3e-3, 0.5e-3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// samePoints fails unless got and want are bit-identical point series.
func samePoints(t *testing.T, what string, got, want []TracePoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Time != want[i].Time {
			t.Fatalf("%s point %d: time %v vs %v", what, i, got[i].Time, want[i].Time)
		}
		for b := range want[i].BlockC {
			if got[i].BlockC[b] != want[i].BlockC[b] {
				t.Fatalf("%s point %d block %d: %v vs %v", what, i, b, got[i].BlockC[b], want[i].BlockC[b])
			}
		}
	}
}

// sessionReplays replays every job alone through Session.ReplayRows: the
// per-job reference the batched replay must reproduce.
func sessionReplays(t *testing.T, models []*Model, srcs []*trace.PowerTrace) [][]TracePoint {
	t.Helper()
	ref := make([][]TracePoint, len(models))
	for j, m := range models {
		pts, err := m.NewSession().ReplayRows(m.AmbientState(), srcs[j].Reader())
		if err != nil {
			t.Fatal(err)
		}
		ref[j] = pts
	}
	return ref
}

// batchMatchesSessions replays models[j] over srcs[j] in one batch at each
// worker count and fails unless every job matches ref[j] bitwise.
func batchMatchesSessions(t *testing.T, models []*Model, srcs []*trace.PowerTrace, ref [][]TracePoint, workerCounts ...int) {
	t.Helper()
	for _, workers := range workerCounts {
		jobs := make([]ReplayJob, len(models))
		for j, m := range models {
			jobs[j] = ReplayJob{Model: m, Rows: srcs[j].Reader()}
		}
		got, errs := ReplayBatchResults(jobs, workers)
		for j := range ref {
			if errs[j] != nil {
				t.Fatalf("workers=%d job %d: %v", workers, j, errs[j])
			}
			samePoints(t, fmt.Sprintf("workers=%d job %d", workers, j), got[j], ref[j])
		}
	}
}

// TestRunSweepLockstepParity: batches mixing two models and several
// same-model scenarios must match per-job Session.ReplayRows bitwise at
// every worker count (same-model jobs lockstep; chunking varies with
// workers).
func TestRunSweepLockstepParity(t *testing.T) {
	oil, air := lockstepModels(t)
	traces := []*trace.PowerTrace{pulse(t, "IntReg"), pulse(t, "FPMap"), pulse(t, "Dcache")}
	var models []*Model
	var srcs []*trace.PowerTrace
	for _, m := range []*Model{oil, air} {
		for _, tr := range traces {
			models = append(models, m)
			srcs = append(srcs, tr)
		}
	}
	batchMatchesSessions(t, models, srcs, sessionReplays(t, models, srcs), 1, 2, 5)
}

// TestRunReplayBatchLockstepParity: batches mixing three models and traces
// of different lengths in one lockstep group — shorter ones drop out at EOF — must match per-job
// Session.ReplayRows bitwise at every worker count, including GOMAXPROCS
// (workers = 0).
func TestRunReplayBatchLockstepParity(t *testing.T) {
	oil, air := lockstepModels(t)
	oil2 := oilModel(t, floorplan.EV6(), Uniform, 1.0, false)
	long := pulse(t, "IntReg")
	short := &trace.PowerTrace{Names: long.Names, Interval: long.Interval, Rows: pulse(t, "FPMap").Rows[:5]}
	models := []*Model{oil, oil, air, oil2, oil, air}
	srcs := []*trace.PowerTrace{long, short, long, pulse(t, "Dcache"), long, short}
	batchMatchesSessions(t, models, srcs, sessionReplays(t, models, srcs), 1, 2, 4, 0)
}

// TestRunReplayBatchSharedModel: N jobs against one model match N serial
// replays, also when N exceeds rcnet.MaxBatchWidth and the group splits.
func TestRunReplayBatchSharedModel(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	serial, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, rcnet.MaxBatchWidth + 6} {
		jobs := make([]ReplayJob, n)
		for i := range jobs {
			jobs[i] = ReplayJob{Model: m, Rows: tr.Reader()}
		}
		got, errs := ReplayBatchResults(jobs, 1)
		for j := range jobs {
			if errs[j] != nil {
				t.Fatalf("n=%d job %d: %v", n, j, errs[j])
			}
			samePoints(t, fmt.Sprintf("n=%d job %d", n, j), got[j], serial)
		}
	}
}

// TestRunSweepAcrossModels: one batch mixing two different models and a
// repeated model. Jobs sharing a model must not interfere (exercised under
// -race in CI), and a short heat pulse must heat IntReg in every replay.
func TestRunSweepAcrossModels(t *testing.T) {
	fp := floorplan.EV6()
	oil := oilModel(t, fp, Uniform, 1.0, false)
	air := airModel(t, fp, 1.0, false)
	tr, err := trace.PulseTrain(fp.Names(), "IntReg", 2, 4e-3, 4e-3, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []ReplayJob{{Model: oil, Rows: tr.Reader()}, {Model: air, Rows: tr.Reader()}, {Model: oil, Rows: tr.Reader()}}
	pts, errs := ReplayBatchResults(jobs, 0)
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
	// The two oil replays are identical jobs: identical results.
	samePoints(t, "oil job 2 vs oil job 0", pts[2], pts[0])
	idx := fp.Index("IntReg")
	for j := range pts {
		rise := pts[j][4].BlockC[idx] - pts[j][0].BlockC[idx]
		if math.IsNaN(rise) || rise <= 0 {
			t.Fatalf("job %d: IntReg did not heat (rise %g)", j, rise)
		}
	}
}

// TestRunTraceBatchMatchesRunTrace: a batch of pulses on different blocks
// of one model must reproduce each job's serial replay exactly.
func TestRunTraceBatchMatchesRunTrace(t *testing.T) {
	fp := floorplan.EV6()
	m := oilModel(t, fp, Uniform, 1.0, true)
	var models []*Model
	var srcs []*trace.PowerTrace
	for _, b := range []string{"IntReg", "Dcache", "L2", "FPMap"} {
		tr, err := trace.PulseTrain(fp.Names(), b, 3, 5e-3, 5e-3, 1e-3, 1)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
		srcs = append(srcs, tr)
	}
	batchMatchesSessions(t, models, srcs, sessionReplays(t, models, srcs), 0)
}

// TestBatchSessionStepBlockPowerParity: the K-wide stepping session must
// match per-cell Sessions bitwise, and an invalid slot must fail alone
// without advancing its state.
func TestBatchSessionStepBlockPowerParity(t *testing.T) {
	oil, _ := lockstepModels(t)
	nb := oil.Config().Floorplan.N()
	const kk = 3
	seq := make([][]float64, kk)
	bat := make([][]float64, kk)
	pws := make([][]float64, kk)
	for k := 0; k < kk; k++ {
		seq[k] = oil.AmbientState()
		bat[k] = oil.AmbientState()
		pws[k] = make([]float64, nb)
		for b := range pws[k] {
			pws[k][b] = float64(k+1) * 0.3
		}
	}
	bs := oil.NewBatchSession(kk)
	errs := make([]error, kk)
	for step := 0; step < 5; step++ {
		for k := 0; k < kk; k++ {
			se := oil.NewSession()
			if err := se.StepBlockPower(seq[k], pws[k], 1e-3); err != nil {
				t.Fatal(err)
			}
		}
		if err := bs.StepBlockPower(bat, pws, 1e-3, errs); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < kk; k++ {
			if errs[k] != nil {
				t.Fatalf("slot %d: %v", k, errs[k])
			}
			for i := range bat[k] {
				if bat[k][i] != seq[k][i] {
					t.Fatalf("step %d slot %d node %d: %v vs %v", step, k, i, bat[k][i], seq[k][i])
				}
			}
		}
	}

	// Invalid power in one slot: that slot errors and freezes, others step.
	before := append([]float64(nil), bat[1]...)
	pws[1][0] = -1
	if err := bs.StepBlockPower(bat, pws, 1e-3, errs); err != nil {
		t.Fatal(err)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "invalid power") {
		t.Fatalf("invalid slot error: %v", errs[1])
	}
	for i := range before {
		if bat[1][i] != before[i] {
			t.Fatal("failed slot advanced")
		}
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy slots failed: %v %v", errs[0], errs[2])
	}
}
