#!/usr/bin/env bash
# bench.sh — the solver benchmark harness.
#
# Runs the solver-path micro-benchmarks (the root EV6 benchmarks including
# the reduced-order step and streaming-session rows, the rcnet backend
# matrix with the N=16384/N=65536 reference-grid rows and the reduced
# streaming row, the linalg kernel benchmarks: numeric refactorization,
# solve-kernel widths, and the tstore telemetry-store
# group: ingest rows/s — gated at ≥1M rows/s on one core — plus rollup and
# raw query latency, and the fleet routing group: bounded-load ring
# lookups, proxy wire overhead against no-op backends, and the failover
# window p99 while the primary owner is dead) and emits BENCH_solver.json
# via cmd/benchreport:
# ns/op, B/op, allocs/op, custom metrics, GOMAXPROCS and the commit hash.
#
# The suite runs once per GOMAXPROCS value in BENCH_PROCS (default "1 4"):
# the single-core run is the per-core trajectory row, the multicore run
# exercises the level-parallel factorization and within-panel splits. Each
# run chains into the report via -prev, so the history array carries one
# entry per (commit, gomaxprocs) and baselines/speedups match per core
# count (see cmd/benchreport).
#
# Usage, from the repository root:
#
#	./scripts/bench.sh                   # full run, rewrites BENCH_solver.json
#	BENCHTIME=1x ./scripts/bench.sh      # CI smoke: one iteration per benchmark
#	BENCH_PROCS=1 ./scripts/bench.sh     # single-core only
#	OUT=/tmp/b.json ./scripts/bench.sh   # write elsewhere
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-group iteration counts: the EV6 step/solve benchmarks are ~1 µs/op and
# need many iterations for a stable number, the sweep is ~0.7 ms/op, the
# rcnet backend matrix spans ~20 µs to ~330 ms rows (dense N=2048 transient),
# and the linalg kernel rows sit at ~5-25 ms. Setting BENCHTIME overrides
# all of them (CI smoke passes BENCHTIME=1x).
STEP_BENCHTIME="${BENCHTIME:-50000x}"
SWEEP_BENCHTIME="${BENCHTIME:-1000x}"
RCNET_BENCHTIME="${BENCHTIME:-20x}"
KERNEL_BENCHTIME="${BENCHTIME:-20x}"
TSTORE_BENCHTIME="${BENCHTIME:-200x}"
FLEET_BENCHTIME="${BENCHTIME:-200x}"
OUT="${OUT:-BENCH_solver.json}"
BENCH_PROCS="${BENCH_PROCS:-1 4}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

for procs in $BENCH_PROCS; do
  : > "$tmp"
  echo "=== GOMAXPROCS=$procs ==="

  echo "== root solver benchmarks (-benchtime $STEP_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkTransientStepBE$|BenchmarkSteadyStateSolve$|BenchmarkReducedStepBE$|BenchmarkReducedSessionStream$' \
    -benchmem -benchtime "$STEP_BENCHTIME" . | tee -a "$tmp"

  echo "== trace replay sweep (-benchtime $SWEEP_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkTraceReplaySweep$' \
    -benchmem -benchtime "$SWEEP_BENCHTIME" . | tee -a "$tmp"

  echo "== rcnet backend benchmarks (-benchtime $RCNET_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkBackendSteadyStateSolveOnly|BenchmarkBackendTransientBE|BenchmarkBackendReducedStream' \
    -benchmem -benchtime "$RCNET_BENCHTIME" ./internal/rcnet | tee -a "$tmp"

  echo "== linalg kernel benchmarks (-benchtime $KERNEL_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkCholeskyFactorNumeric|BenchmarkSolveKernelWidths' \
    -benchmem -benchtime "$KERNEL_BENCHTIME" ./internal/linalg | tee -a "$tmp"

  echo "== tstore telemetry store benchmarks (-benchtime $TSTORE_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkTstore' \
    -benchmem -benchtime "$TSTORE_BENCHTIME" ./internal/tstore | tee -a "$tmp"

  echo "== fleet routing benchmarks (-benchtime $FLEET_BENCHTIME)"
  GOMAXPROCS="$procs" go test -run '^$' -bench 'BenchmarkFleet' \
    -benchmem -benchtime "$FLEET_BENCHTIME" ./internal/fleet | tee -a "$tmp"

  prev_args=()
  if [ -f "$OUT" ]; then
    prev_args=(-prev "$OUT")
  fi
  GOMAXPROCS="$procs" go run ./cmd/benchreport -commit "$commit" "${prev_args[@]}" -out "$OUT" < "$tmp"
done
echo "wrote $OUT"
