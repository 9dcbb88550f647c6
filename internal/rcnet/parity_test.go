package rcnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// gridNetwork builds a floorplan-shaped RC network: an nx×ny silicon grid
// with 4-neighbor lateral conductances, each cell tied to a per-cell oil
// boundary node (small capacitance — the stiff part), and the oil nodes tied
// to ambient. Conductances and capacitances are randomized within physical
// ranges so the parity property is exercised across many system shapes.
func gridNetwork(rng *rand.Rand, nx, ny int) *Network {
	n := New(300 + 20*rng.Float64())
	si := make([]int, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			si[iy*nx+ix] = n.AddNode(fmt.Sprintf("si:%d_%d", ix, iy), 0.01+0.05*rng.Float64())
		}
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			c := si[iy*nx+ix]
			if ix+1 < nx {
				n.Connect(c, si[iy*nx+ix+1], 0.5+2*rng.Float64())
			}
			if iy+1 < ny {
				n.Connect(c, si[(iy+1)*nx+ix], 0.5+2*rng.Float64())
			}
		}
	}
	for i, c := range si {
		oil := n.AddNode(fmt.Sprintf("oil:%d", i), 1e-4+1e-3*rng.Float64())
		n.Connect(c, oil, 0.2+rng.Float64())
		n.ConnectAmbient(oil, 0.1+rng.Float64())
	}
	return n
}

func randomPower(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		if rng.Float64() < 0.3 {
			p[i] = 5 * rng.Float64()
		}
	}
	return p
}

// compileBoth compiles one network onto both backends.
func compileBoth(t *testing.T, n *Network) (dense, sparse *Solver) {
	t.Helper()
	d, err := n.CompileWith(linalg.DenseBackend{})
	if err != nil {
		t.Fatalf("dense compile: %v", err)
	}
	s, err := n.CompileWith(linalg.SparseBackend{})
	if err != nil {
		t.Fatalf("sparse compile: %v", err)
	}
	return d, s
}

// TestBackendParitySteadyState: dense LU and sparse CG must agree on the
// steady state of random floorplan-shaped networks to tight tolerance. This
// is the refactor's safety net: the dense path is the oracle.
func TestBackendParitySteadyState(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 3+rng.Intn(6), 3+rng.Intn(6)
		net := gridNetwork(rng, nx, ny)
		dense, sparse := compileBoth(t, net)
		p := randomPower(rng, net.N())
		td := dense.SteadyState(p)
		ts := sparse.SteadyState(p)
		for i := range td {
			rise := math.Max(1, td[i]-net.Ambient())
			if d := math.Abs(td[i] - ts[i]); d > 1e-7*rise {
				t.Fatalf("seed %d (%dx%d): steady node %d dense %.12g vs sparse %.12g (Δ=%g)",
					seed, nx, ny, i, td[i], ts[i], d)
			}
		}
	}
}

// TestBackendParityTransientBE: fixed-step backward-Euler transients must
// track between backends, including a step-size change mid-run (exercising
// the cached shifted operator on both).
func TestBackendParityTransientBE(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		net := gridNetwork(rng, 4, 4)
		dense, sparse := compileBoth(t, net)
		p := randomPower(rng, net.N())
		td := dense.AmbientVector()
		ts := sparse.AmbientVector()
		for _, leg := range []struct{ dur, dt float64 }{{0.5, 0.01}, {0.2, 0.004}} {
			if err := dense.TransientBE(td, p, leg.dur, leg.dt); err != nil {
				t.Fatal(err)
			}
			if err := sparse.TransientBE(ts, p, leg.dur, leg.dt); err != nil {
				t.Fatal(err)
			}
		}
		for i := range td {
			if d := math.Abs(td[i] - ts[i]); d > 1e-5 {
				t.Fatalf("seed %d: BE node %d dense %.12g vs sparse %.12g (Δ=%g)", seed, i, td[i], ts[i], d)
			}
		}
	}
}

// TestTransientBatchMatchesSerial: jobs stepped together through one
// BatchSession must produce bit for bit the same samples as stepping each
// job alone, on both the auto-selected (Cholesky) path and the CG path.
func TestTransientBatchMatchesSerial(t *testing.T) {
	for _, hint := range []SolverHint{HintAuto, HintCG} {
		t.Run(hint.String(), func(t *testing.T) { testTransientBatchMatchesSerial(t, hint) })
	}
}

func testTransientBatchMatchesSerial(t *testing.T, hint SolverHint) {
	rng := rand.New(rand.NewSource(9))
	net := gridNetwork(rng, 6, 6)
	s, err := net.CompileHint(hint)
	if err != nil {
		t.Fatal(err)
	}
	want72 := "cholesky"
	if hint == HintCG {
		want72 = "sparse"
	}
	if s.Backend() != want72 {
		t.Fatalf("hint %v: compiled onto %q, want %q", hint, s.Backend(), want72)
	}
	const jobs, steps, dt = 6, 10, 0.03
	powers := make([][]float64, jobs)
	temps := make([][]float64, jobs)
	got := make([][][]float64, jobs)
	for j := range powers {
		powers[j] = randomPower(rng, net.N())
		temps[j] = s.AmbientVector()
		got[j] = [][]float64{append([]float64(nil), temps[j]...)}
	}
	bs := s.NewBatchSession(jobs)
	errs := make([]error, jobs)
	for i := 0; i < steps; i++ {
		if err := bs.StepBE(temps, powers, dt, errs); err != nil {
			t.Fatal(err)
		}
		for j := range temps {
			if errs[j] != nil {
				t.Fatalf("job %d step %d: %v", j, i, errs[j])
			}
			got[j] = append(got[j], append([]float64(nil), temps[j]...))
		}
	}
	for j := range powers {
		sameStates(t, fmt.Sprintf("job %d", j), got[j], serialSteps(t, s, powers[j], dt, steps))
	}
}

// TestBackendParityTrace: trace-driven replay (time-varying power) agrees
// between backends.
func TestBackendParityTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := gridNetwork(rng, 5, 4)
	dense, sparse := compileBoth(t, net)
	p1 := randomPower(rng, net.N())
	p2 := randomPower(rng, net.N())
	// Ten 50 ms steps, switching power maps halfway, each backend stepped
	// through its own session.
	td := dense.AmbientVector()
	ts := sparse.AmbientVector()
	sd, ss := dense.NewSession(), sparse.NewSession()
	for k := 1; k <= 10; k++ {
		p := p1
		if k > 5 {
			p = p2
		}
		if err := sd.StepBE(td, p, 0.05); err != nil {
			t.Fatal(err)
		}
		if err := ss.StepBE(ts, p, 0.05); err != nil {
			t.Fatal(err)
		}
		for i := range td {
			if d := math.Abs(td[i] - ts[i]); d > 1e-5 {
				t.Fatalf("step %d node %d: dense %.12g vs sparse %.12g", k, i, td[i], ts[i])
			}
		}
	}
}

// TestCompileSelectsBackendBySize: the automatic selection must route tiny
// networks to dense LU and everything floorplan-shaped (modest fill) to the
// sparse direct Cholesky path, with the SolverHint escape hatch forcing any
// backend.
func TestCompileSelectsBackendBySize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tiny := New(300)
	a := tiny.AddNode("a", 1)
	bn := tiny.AddNode("b", 1)
	tiny.Connect(a, bn, 2)
	tiny.ConnectAmbient(a, 1)
	s1, err := tiny.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Backend() != "dense" {
		t.Fatalf("tiny network compiled onto %q, want dense", s1.Backend())
	}
	small := gridNetwork(rng, 3, 3) // 18 nodes: already past DenseCutoff
	sSmall, err := small.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sSmall.Backend() != "cholesky" {
		t.Fatalf("small network compiled onto %q, want cholesky", sSmall.Backend())
	}
	big := gridNetwork(rng, 10, 10) // 200 nodes
	s2, err := big.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Backend() != "cholesky" {
		t.Fatalf("big network compiled onto %q, want cholesky", s2.Backend())
	}
	for hint, want := range map[SolverHint]string{
		HintDense:    "dense",
		HintCholesky: "cholesky",
		HintCG:       "sparse",
	} {
		s, err := big.CompileHint(hint)
		if err != nil {
			t.Fatalf("hint %v: %v", hint, err)
		}
		if s.Backend() != want {
			t.Fatalf("hint %v compiled onto %q, want %q", hint, s.Backend(), want)
		}
	}
}

// TestFloatingIslandRejectedBothBackends: the structural ground check must
// fire for both backends (the iterative backend cannot rely on a
// factorization failure).
func TestFloatingIslandRejectedBothBackends(t *testing.T) {
	for _, backend := range []linalg.Backend{linalg.DenseBackend{}, linalg.SparseBackend{}} {
		n := New(300)
		n.AddNode("a", 1)
		b := n.AddNode("b", 1)
		n.ConnectAmbientR(b, 1)
		if _, err := n.CompileWith(backend); err == nil {
			t.Fatalf("%s: expected floating-island error", backend.Name())
		}
	}
}
