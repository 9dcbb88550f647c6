package linalg

import (
	"math/rand"
	"testing"
)

// Tests for the register-blocked kernels: the per-width kernel solve
// counters. The factor bits are pinned by TestFactorGolden.

// TestKernelSolveCounters: the workspace must attribute solves to the
// kernel widths the greedy dispatch actually used.
func TestKernelSolveCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 120
	op, err := (CholeskyBackend{}).Assemble(n, spdEntries(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	b := make([][]float64, 31) // 16 + 8 + 4 + 3×1
	for k := range b {
		b[k] = make([]float64, n)
		for i := range b[k] {
			b[k][i] = rng.NormFloat64()
		}
	}
	ws := &Workspace{}
	if _, err := op.SolveBatch(b, nil, nil, ws); err != nil {
		t.Fatal(err)
	}
	want := [4]int64{3, 1, 1, 1}
	if ws.KernelSolves != want {
		t.Fatalf("kernel counters %v, want %v", ws.KernelSolves, want)
	}
}
