package hotspot

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/trace"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(Config{
		Floorplan: floorplan.EV6(),
		Package:   AirSink,
		AmbientK:  318.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pulseTrace(t *testing.T, fp *floorplan.Floorplan) *trace.PowerTrace {
	t.Helper()
	tr, err := trace.PulseTrain(fp.Names(), "IntReg", 3.0, 5e-3, 5e-3, 1e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayStreamedMatchesLoaded: replaying rows streamed through the
// ptrace decoder must be bit-identical to replaying the same in-memory
// trace through its cursor.
func TestReplayStreamedMatchesLoaded(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.NewDecoder(&buf, trace.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := m.NewSession().ReplayRows(m.AmbientState(), dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(streamed) {
		t.Fatalf("point count: %d vs %d", len(loaded), len(streamed))
	}
	for i := range loaded {
		if loaded[i].Time != streamed[i].Time {
			t.Fatalf("point %d: time %.17g vs %.17g", i, loaded[i].Time, streamed[i].Time)
		}
		for b := range loaded[i].BlockC {
			if loaded[i].BlockC[b] != streamed[i].BlockC[b] {
				t.Fatalf("point %d block %d: %.17g vs %.17g (not bit-identical)",
					i, b, loaded[i].BlockC[b], streamed[i].BlockC[b])
			}
		}
	}
}

// TestReplayMatchesStepBlockPower: the replay engine steps the rows in
// order, exactly like a hand loop of Session.StepBlockPower.
func TestReplayMatchesStepBlockPower(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	cols := m.TraceColumns(tr.Names)

	temps := m.AmbientState()
	se := m.NewSession()
	bp := make([]float64, m.Floorplan().N())
	want := []TracePoint{{Time: 0, BlockC: m.NewResult(temps).BlocksC()}}
	for k, row := range tr.Rows {
		clear(bp)
		for c, bi := range cols {
			if bi >= 0 {
				bp[bi] = row[c]
			}
		}
		if err := se.StepBlockPower(temps, bp, tr.Interval); err != nil {
			t.Fatal(err)
		}
		want = append(want, TracePoint{Time: want[k].Time + tr.Interval, BlockC: m.NewResult(temps).BlocksC()})
	}
	got, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "replay vs hand loop", got, want)
}

// TestSessionSteadyMatchesSolver: the warm-started session steady solve
// returns the same answer as the stateless one, on repeated and varied
// power maps.
func TestSessionSteadyMatchesSolver(t *testing.T) {
	m := testModel(t)
	se := m.NewSession()
	for _, watts := range []float64{2, 2, 5, 0.5} {
		p, err := m.PowerVector(map[string]float64{"IntReg": watts, "Dcache": watts / 2})
		if err != nil {
			t.Fatal(err)
		}
		want := m.SteadyState(p)
		got := se.SteadyState(p)
		for i := range want.Temps {
			if d := math.Abs(want.Temps[i] - got.Temps[i]); d > 1e-9 {
				t.Fatalf("watts=%g node %d: session %.12g vs solver %.12g", watts, i, got.Temps[i], want.Temps[i])
			}
		}
	}
}

// replayIsolates runs the jobs through ReplayBatchResults at one worker and
// at GOMAXPROCS. Jobs named in wantErr must fail with exactly that error
// and no points; every other job must match its own serial
// Session.ReplayRows bitwise. jobs is a factory because readers are
// single-use.
func replayIsolates(t *testing.T, jobs func() []ReplayJob, wantErr map[int]string) {
	t.Helper()
	for _, workers := range []int{1, 0} {
		batch := jobs()
		results, errs := ReplayBatchResults(batch, workers)
		for j, job := range jobs() {
			if want, bad := wantErr[j]; bad {
				if errs[j] == nil || errs[j].Error() != want {
					t.Fatalf("workers=%d job %d: error %v, want %q", workers, j, errs[j], want)
				}
				if results[j] != nil {
					t.Fatalf("workers=%d job %d: failed job kept %d points", workers, j, len(results[j]))
				}
				continue
			}
			if errs[j] != nil {
				t.Fatalf("workers=%d healthy job %d: %v", workers, j, errs[j])
			}
			want, err := job.Model.NewSession().ReplayRows(job.Model.AmbientState(), job.Rows)
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, fmt.Sprintf("workers=%d job %d", workers, j), results[j], want)
		}
	}
}

// TestEmptyTraceErrors: a zero-length trace must yield a descriptive error
// from both entry points, never a panic, and fail only its own job in a
// batch.
func TestEmptyTraceErrors(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	empty, err := trace.New(m.Floorplan().Names(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	const want = "hotspot: empty trace: no power rows"
	if _, err := m.NewSession().ReplayRows(m.AmbientState(), empty.Reader()); err == nil || err.Error() != want {
		t.Fatalf("ReplayRows empty trace: got %v", err)
	}
	replayIsolates(t, func() []ReplayJob {
		return []ReplayJob{
			{Model: m, Rows: tr.Reader()},
			{Model: m, Rows: empty.Reader()},
			{Model: m, Rows: tr.Reader()},
		}
	}, map[int]string{1: want})
}

// panicReader is a trace cursor that panics in one RowReader method: Names,
// Interval, or Next once it has served two rows.
type panicReader struct {
	trace.RowReader
	in   string
	rows int
}

func (r *panicReader) Names() []string {
	if r.in == "Names" {
		panic("names exploded")
	}
	return r.RowReader.Names()
}

func (r *panicReader) Interval() float64 {
	if r.in == "Interval" {
		panic("interval exploded")
	}
	return r.RowReader.Interval()
}

func (r *panicReader) Next(dst []float64) error {
	if r.in == "Next" && r.rows == 2 {
		panic("row exploded")
	}
	r.rows++
	return r.RowReader.Next(dst)
}

// TestSweepPanicBecomesError: a reader that panics — before replay or mid
// replay — fails its own job without crashing the process, and well-formed
// sibling jobs in the same lockstep group still complete.
func TestSweepPanicBecomesError(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	replayIsolates(t, func() []ReplayJob {
		return []ReplayJob{
			{Model: m, Rows: &panicReader{RowReader: tr.Reader(), in: "Next"}},
			{Model: m, Rows: tr.Reader()},
			{Model: m, Rows: &panicReader{RowReader: tr.Reader(), in: "Names"}},
			{Model: m, Rows: &panicReader{RowReader: tr.Reader(), in: "Interval"}},
			{Model: m, Rows: tr.Reader()},
		}
	}, map[int]string{
		0: "hotspot: replay row 3: job panicked: row exploded",
		2: "job panicked: names exploded",
		3: "job panicked: interval exploded",
	})
}

// intervalReader overrides a trace cursor's interval.
type intervalReader struct {
	trace.RowReader
	dt float64
}

func (r intervalReader) Interval() float64 { return r.dt }

// failingReader returns an error in place of its third row.
type failingReader struct {
	trace.RowReader
	rows int
}

func (r *failingReader) Next(dst []float64) error {
	if r.rows == 2 {
		return errors.New("stream broke")
	}
	r.rows++
	return r.RowReader.Next(dst)
}

// TestReplayBatchRejectsMalformedJobs: a nil model, nil rows, a
// non-positive or NaN interval, a wrong-length initial state and a reader
// error each fail only their own job, with the same error texts the
// one-job Session.ReplayRows reports.
func TestReplayBatchRejectsMalformedJobs(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	replayIsolates(t, func() []ReplayJob {
		return []ReplayJob{
			{Model: nil, Rows: tr.Reader()},
			{Model: m, Rows: tr.Reader()},
			{Model: m},
			{Model: m, Rows: intervalReader{tr.Reader(), 0}},
			{Model: m, Rows: intervalReader{tr.Reader(), math.NaN()}},
			{Model: m, Temps: make([]float64, 1), Rows: tr.Reader()},
			{Model: m, Rows: &failingReader{RowReader: tr.Reader()}},
			{Model: m, Rows: tr.Reader()},
		}
	}, map[int]string{
		0: "nil model",
		2: "nil row source",
		3: "hotspot: non-positive trace interval 0",
		4: "hotspot: non-positive trace interval NaN",
		5: fmt.Sprintf("hotspot: temperature vector length 1, want %d", len(m.AmbientState())),
		6: "hotspot: replay row 3: stream broke",
	})
	se := m.NewSession()
	if _, err := se.ReplayRows(m.AmbientState(), intervalReader{tr.Reader(), -1e-3}); err == nil ||
		err.Error() != "hotspot: non-positive trace interval -0.001" {
		t.Fatalf("ReplayRows negative interval: got %v", err)
	}
	if _, err := se.ReplayRows(m.AmbientState(), &failingReader{RowReader: tr.Reader()}); err == nil ||
		err.Error() != "hotspot: replay row 3: stream broke" {
		t.Fatalf("ReplayRows reader error: got %v", err)
	}
}

// TestShortTraceStillRuns: a one-row trace is not an error — it runs one
// step and records the initial and the final state.
func TestShortTraceStillRuns(t *testing.T) {
	m := testModel(t)
	tr, err := trace.Step(m.Floorplan().Names(), map[string]float64{"IntReg": 2}, 1e-3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 { // initial state + one step
		t.Fatalf("got %d points, want 2", len(pts))
	}
}
