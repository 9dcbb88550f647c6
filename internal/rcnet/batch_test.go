package rcnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Tests for the batched stepping layer: bit-identical parity between the
// batched and per-session paths on every backend, the batch-width
// statistics, and the zero-allocation gate on the batched hot path.

// TestBatchSessionMatchesSessions: K states stepped through one BatchSession
// must be bit-identical to the same K states stepped through K independent
// Sessions, on the dense, supernodal-Cholesky and CG backends, through a dt
// switch.
func TestBatchSessionMatchesSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := gridNetwork(rng, 6, 6)
	const kk = 5
	for _, hint := range []SolverHint{HintDense, HintCholesky, HintCG} {
		t.Run(hint.String(), func(t *testing.T) {
			s, err := net.CompileHint(hint)
			if err != nil {
				t.Fatal(err)
			}
			powers := make([][]float64, kk)
			seqTemps := make([][]float64, kk)
			batTemps := make([][]float64, kk)
			for k := 0; k < kk; k++ {
				powers[k] = randomPower(rng, net.N())
				seqTemps[k] = s.AmbientVector()
				batTemps[k] = s.AmbientVector()
			}
			bs := s.NewBatchSession(kk)
			errs := make([]error, kk)
			for step, dt := range []float64{1e-3, 1e-3, 2e-3, 1e-3} {
				for k := 0; k < kk; k++ {
					se := s.NewSession() // fresh session: state lives in temps
					if err := se.StepBE(seqTemps[k], powers[k], dt); err != nil {
						t.Fatal(err)
					}
				}
				if err := bs.StepBE(batTemps, powers, dt, errs); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < kk; k++ {
					if errs[k] != nil {
						t.Fatalf("step %d slot %d: %v", step, k, errs[k])
					}
					for i := range batTemps[k] {
						if batTemps[k][i] != seqTemps[k][i] {
							t.Fatalf("step %d slot %d node %d: batch %v vs sequential %v",
								step, k, i, batTemps[k][i], seqTemps[k][i])
						}
					}
				}
			}
		})
	}
}

// TestBatchSessionSkipsNilSlots: nil temperature slots are skipped and the
// rest advance exactly as without them.
func TestBatchSessionSkipsNilSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := gridNetwork(rng, 5, 5)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := randomPower(rng, net.N())
	ref := s.AmbientVector()
	se := s.NewSession()
	if err := se.StepBE(ref, p, 1e-3); err != nil {
		t.Fatal(err)
	}
	bs := s.NewBatchSession(3)
	live := s.AmbientVector()
	temps := [][]float64{nil, live, nil}
	powers := [][]float64{nil, p, nil}
	errs := make([]error, 3)
	if err := bs.StepBE(temps, powers, 1e-3, errs); err != nil {
		t.Fatal(err)
	}
	for i := range live {
		if live[i] != ref[i] {
			t.Fatalf("node %d: %v vs %v", i, live[i], ref[i])
		}
	}
}

// serialSteps steps temp alone through a fresh Session, steps times at dt
// under constant power, and returns the initial state plus every stepped
// state.
func serialSteps(t *testing.T, s *Solver, power []float64, dt float64, steps int) [][]float64 {
	t.Helper()
	temp := s.AmbientVector()
	se := s.NewSession()
	out := [][]float64{append([]float64(nil), temp...)}
	for i := 0; i < steps; i++ {
		if err := se.StepBE(temp, power, dt); err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]float64(nil), temp...))
	}
	return out
}

// sameStates fails unless got and want are bit-identical state series.
func sameStates(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples vs %d", what, len(got), len(want))
	}
	for k := range want {
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("%s sample %d node %d: batch %.17g vs serial %.17g", what, k, i, got[k][i], want[k][i])
			}
		}
	}
}

// TestTransientBatchLockstepParity: jobs stepped in lockstep groups must
// produce bit-identical samples to stepping each job alone, at any group
// width, with two step sizes in one batch (one BatchSession per step size).
func TestTransientBatchLockstepParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := gridNetwork(rng, 6, 5)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const jobs, steps = 11, 20
	dts := []float64{1e-3, 5e-4}
	powers := make([][]float64, jobs)
	ref := make([][][]float64, jobs)
	for j := range powers {
		powers[j] = randomPower(rng, net.N())
		ref[j] = serialSteps(t, s, powers[j], dts[j%len(dts)], steps)
	}
	for _, width := range []int{1, 2, 4, jobs} {
		got := make([][][]float64, jobs)
		for d, dt := range dts {
			var group []int
			for j := d; j < jobs; j += len(dts) {
				group = append(group, j)
			}
			for lo := 0; lo < len(group); lo += width {
				chunk := group[lo:min(lo+width, len(group))]
				bs := s.NewBatchSession(len(chunk))
				temps := make([][]float64, len(chunk))
				pws := make([][]float64, len(chunk))
				errs := make([]error, len(chunk))
				for k, j := range chunk {
					temps[k], pws[k] = s.AmbientVector(), powers[j]
					got[j] = [][]float64{append([]float64(nil), temps[k]...)}
				}
				for i := 0; i < steps; i++ {
					if err := bs.StepBE(temps, pws, dt, errs); err != nil {
						t.Fatal(err)
					}
					for k, j := range chunk {
						if errs[k] != nil {
							t.Fatalf("width=%d job %d step %d: %v", width, j, i, errs[k])
						}
						got[j] = append(got[j], append([]float64(nil), temps[k]...))
					}
				}
			}
		}
		for j := range ref {
			sameStates(t, fmt.Sprintf("width=%d job %d", width, j), got[j], ref[j])
		}
	}
}

// TestTransientBatchPanicIsolation: a job whose power source panics
// mid-replay is dropped from its lockstep group by nilling its slot; the
// healthy jobs keep every sample, bit-identical to stepping alone, and the
// dropped job's state stays where it failed.
func TestTransientBatchPanicIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := gridNetwork(rng, 4, 4)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const dt, steps, failAt = 1e-3, 10, 5
	p := randomPower(rng, net.N())
	ref := serialSteps(t, s, p, dt, steps)
	source := func(job, step int) []float64 {
		if job == 1 && step >= failAt {
			panic("boom")
		}
		return p
	}
	// power fetches one job's row, turning a panic into an error.
	power := func(job, step int) (row []float64, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job %d panicked: %v", job, r)
			}
		}()
		return source(job, step), nil
	}
	const kk = 3
	bs := s.NewBatchSession(kk)
	temps := make([][]float64, kk)
	pws := make([][]float64, kk)
	errs := make([]error, kk)
	samples := make([][][]float64, kk)
	for k := range temps {
		temps[k] = s.AmbientVector()
		samples[k] = [][]float64{append([]float64(nil), temps[k]...)}
	}
	failed := temps[1]
	var jobErr error
	for i := 0; i < steps; i++ {
		for k := range temps {
			if temps[k] == nil {
				continue
			}
			row, err := power(k, i)
			if err != nil {
				jobErr, temps[k], pws[k] = err, nil, nil
				continue
			}
			pws[k] = row
		}
		if err := bs.StepBE(temps, pws, dt, errs); err != nil {
			t.Fatal(err)
		}
		for k := range temps {
			if temps[k] != nil {
				samples[k] = append(samples[k], append([]float64(nil), temps[k]...))
			}
		}
	}
	if jobErr == nil || !strings.Contains(jobErr.Error(), "job 1") || !strings.Contains(jobErr.Error(), "panicked") {
		t.Fatalf("expected job 1 panic error, got %v", jobErr)
	}
	if len(samples[1]) != failAt+1 {
		t.Fatalf("panicked job: %d samples, want %d", len(samples[1]), failAt+1)
	}
	sameStates(t, "panicked job state", [][]float64{failed}, ref[failAt:failAt+1])
	for _, k := range []int{0, 2} {
		if len(samples[k]) != steps+1 {
			t.Fatalf("healthy job %d: %d samples, want %d", k, len(samples[k]), steps+1)
		}
		sameStates(t, fmt.Sprintf("healthy job %d", k), samples[k], ref)
	}
}

// TestBatchWidthHistogram: batched steps must land in the width histogram
// bucket matching the group width.
func TestBatchWidthHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := gridNetwork(rng, 5, 5)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const jobs, steps = 6, 10
	temps := make([][]float64, jobs)
	powers := make([][]float64, jobs)
	for j := range temps {
		temps[j] = s.AmbientVector()
		powers[j] = randomPower(rng, net.N())
	}
	bs := s.NewBatchSession(jobs)
	errs := make([]error, jobs)
	for i := 0; i < steps; i++ {
		if err := bs.StepBE(temps, powers, 1e-3, errs); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.BatchWidths["5-8"] != steps {
		t.Fatalf("batch width histogram: %v, want %d in bucket 5-8", st.BatchWidths, steps)
	}
	if st.DirectSteps != jobs*steps {
		t.Fatalf("direct steps: %d, want %d", st.DirectSteps, jobs*steps)
	}
	if st.Supernodes <= 0 || st.MaxPanelRows <= 0 {
		t.Fatalf("supernodal factor stats missing: %+v", st)
	}
	// A width-6 group dispatches greedily onto one 4-wide kernel plus two
	// singles per step; the per-workspace counters must surface here.
	if st.KernelSolves["4"] != steps || st.KernelSolves["1"] != 2*steps {
		t.Fatalf("kernel solve counters: %v, want %d×\"4\" and %d×\"1\"", st.KernelSolves, steps, 2*steps)
	}
}

// TestBatchStepAllocationFree gates the batched stepping hot path at zero
// allocations per step on the direct backends (the satellite extension of
// TestStepBEAllocationFree).
func TestBatchStepAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	net := gridNetwork(rng, 6, 6)
	for _, hint := range []SolverHint{HintDense, HintCholesky} {
		t.Run(hint.String(), func(t *testing.T) {
			s, err := net.CompileHint(hint)
			if err != nil {
				t.Fatal(err)
			}
			const kk = 4
			temps := make([][]float64, kk)
			powers := make([][]float64, kk)
			for k := 0; k < kk; k++ {
				temps[k] = s.AmbientVector()
				powers[k] = randomPower(rng, net.N())
			}
			bs := s.NewBatchSession(kk)
			errs := make([]error, kk)
			step := func() {
				if err := bs.StepBE(temps, powers, 1e-3, errs); err != nil {
					t.Fatal(err)
				}
				for k, e := range errs {
					if e != nil {
						t.Fatalf("slot %d: %v", k, e)
					}
				}
			}
			step() // warm: factor + scratch growth
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("%v batched StepBE allocates %v times per step, want 0", hint, allocs)
			}
		})
	}
}
