#!/usr/bin/env bash
# CI-style gate: tier-1 verify (configure + build + full ctest), then a
# ThreadSanitizer pass over the deterministic-parallelism surface (the
# thread pool and the threaded engine tests).
#
# Usage: scripts/check.sh [--unit-only|--tier1-only|--tsan-only|--vm|--faults|--transport|--jobs|--spmd|--kernels]
#   --vm           build + the VirtualMachine runtime surface only (the
#                  distributed time-step tests and the VM golden matrix)
#   --spmd         build + the full SPMD execution surface: every test
#                  that runs worker-owned physics over a byte wire (VM
#                  conformance, fault matrix, crash/SIGKILL recovery,
#                  corrupted-frame rollback, wire codec, cross-backend
#                  golden matrix) plus the vm_step benchmark, which
#                  writes BENCH_vm_step.json
#   --faults       build + the fault-tolerance surface (reliable transport,
#                  fault-matrix bitwise recovery, crash rollback, the
#                  corrupted-checkpoint torture tests, checkpoint/resume)
#   --transport    build + the wire-format and byte-transport surface (the
#                  codec property/adversarial tests, the frame fuzzer, the
#                  per-backend smoke tests, shm-fork/SIGKILL recovery, and
#                  the slow cross-backend golden conformance matrix)
#   --kernels      build + the SoA/SIMD kernel surface: the batched-vs-
#                  scalar bitwise property tests, the pair-list reuse
#                  suite, and the bench_kernels smoke run (which itself
#                  asserts bitwise identity and writes BENCH_kernels.json),
#                  then the kernel suites again under ASan + UBSan
#   --jobs         build + the multi-tenant job runtime surface (scheduler
#                  units, TaskGroup sharing, tenant-isolation/recovery
#                  integration tests, and the jobs/hour + fairness bench,
#                  which writes BENCH_jobs.json)
#   JOBS=N         parallelism for build/test (default: nproc)
#   TSAN_FILTER=…  override the gtest filter for the TSan pass
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

# Fast gate: build + the `unit`-labelled tests only (no engine
# construction, no golden matrix). Run this on every edit; run tier1
# before pushing.
unit() {
  echo "== unit gate: configure + build + ctest -L unit =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  (cd build && ctest -L unit --output-on-failure -j"$JOBS")
}

tier1() {
  echo "== tier-1: configure + build + ctest =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  (cd build && ctest --output-on-failure -j"$JOBS")
}

# VM-focused gate: the message-passing runtime's own tests plus the
# engine-vs-VM golden matrix. Run after touching src/parallel/.
vm() {
  echo "== VM gate: build + VirtualMachine + VM golden matrix =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  (cd build && ctest -R 'VirtualMachine|VmGoldenTrajectory' \
    --output-on-failure -j"$JOBS")
}

# Fault-tolerance gate: the reliable-delivery transport, the seeded
# fault matrix (every fault kind recovered bitwise), coordinated crash
# rollback, and the corrupted-checkpoint torture suite. Run after
# touching src/parallel/fault.*, the VM recovery path or io::Checkpoint.
faults() {
  echo "== faults gate: build + fault-tolerance + checkpoint torture =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  (cd build && ctest -R 'FaultTransport|FaultToleranceVm|CheckpointTorture|Checkpoint\.|Simulation\.Resume' \
    --output-on-failure -j"$JOBS")
}

# Transport gate: everything that proves the serialized wire. The codec
# suite and fuzzer are seconds; the cross-backend golden matrix forks
# real workers and is the slow tail. Run after touching src/parallel/
# wire.*, transport.* or the frame path in fault.* / virtual_machine.*.
transport() {
  echo "== transport gate: wire codec + fuzzer + backend conformance =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  (cd build && ctest -R 'WireFormat|WireFuzz|AllTransportBackends|OverShmFork|KillsRealWorker|ExternalSigkill|VmTransportGoldenTrajectory' \
    --output-on-failure -j"$JOBS")
}

# Job-runtime gate: the fair scheduler, the budgeted TaskGroups the
# tenants share one pool through, the JobManager integration surface
# (bitwise tenant isolation, kill/recovery stitching, ensembles), and
# the jobs/hour benchmark with its fairness-skew assertion. Run after
# touching src/jobs/, util/thread_pool.* or core/simulation.*.
jobs_gate() {
  echo "== jobs gate: scheduler + TaskGroup + JobManager + bench =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  (cd build && ctest -R 'JobsScheduler|JobsRuntime|ThreadPoolGroup|Simulation\.' \
    --output-on-failure -j"$JOBS")
  ./build/bench/bench_jobs BENCH_jobs.json
}

# Kernel gate: the SoA batched datapaths against their scalar references.
# The ctest filter covers the bitwise property tests (pair block, batched
# tables and their multiply-only segment search, the row-fused mesh
# kernels, each on every instruction-set clone the host runs, the inline
# quantize round, pair-list reuse) plus the golden matrix that gates the
# batched stepping path end to end; the bench then re-proves
# scalar-vs-batched identity on a bigger system and records the measured
# speedups in BENCH_kernels.json. Last, a separate
# build-asan/ tree under AddressSanitizer + UndefinedBehaviorSanitizer
# (float-cast-overflow included: an out-of-range double -> int conversion
# in a segment search aborts the run) reruns the kernel, table, quantize
# and Gse suites plus one engine-golden and one VM-golden case. Run after
# touching src/tables/, src/htis/, src/pairlist/, src/fixed/,
# src/ewald/gse.* or the node-program/engine pair and mesh loops.
kernels() {
  echo "== kernels gate: SoA batched datapaths vs scalar, bitwise =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  (cd build && ctest -R 'KernelsSimd|TieredTable|FixedProperty|ErfcTableSpline|VerletList|CellGrid|GoldenTrajectory\.' \
    --output-on-failure -j"$JOBS")
  ./build/bench/bench_kernels BENCH_kernels.json

  echo "== kernels gate: ASan + UBSan =="
  cmake -B build-asan -S . -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS -fno-omit-frame-pointer -g"
  cmake --build build-asan -j"$JOBS" --target anton_tests
  (cd build-asan && ctest -R 'KernelsSimd|TieredTable|FixedProperty|^Gse\.|^AllCases/GoldenTrajectory\.MatchesFixture/peptide_solvated_grid111_t1 |^AllCases/VmGoldenTrajectory\.MatchesFixture/peptide_solvated_grid222 ' \
    --output-on-failure -j"$JOBS")
}

# SPMD gate: everything that proves the workers own the physics and the
# coordinator only orchestrates -- the VM conformance + golden surface,
# the fault/rollback matrix over real forked workers, and the wire codec
# it all rides on. Finishes with the per-backend vm_step benchmark so the
# measured cost of SPMD execution is recorded in BENCH_vm_step.json.
spmd() {
  echo "== SPMD gate: worker-owned physics over every byte wire =="
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  (cd build && ctest -R 'VirtualMachine|VmGoldenTrajectory|VmTransportGoldenTrajectory|FaultTransport|FaultToleranceVm|WireFormat|WireFuzz' \
    --output-on-failure -j"$JOBS")
  ./build/bench/bench_vm_step BENCH_vm_step.json
}

tsan() {
  echo "== TSan: engine + thread pool under -fsanitize=thread =="
  cmake -B build-tsan -S . -DANTON_SANITIZE=thread
  cmake --build build-tsan -j"$JOBS" --target anton_tests
  # The threaded surface: the pool itself, the thread-invariance and
  # decomposition-invariance engine tests, the threaded workload counters,
  # and the checkpoint-restart-with-different-thread-count driver test.
  local filter="${TSAN_FILTER:-ThreadPool.*:ThreadPoolGroup.*:ThreadCounts/*:AntonEngine.*:ParallelInvariance*:Decompositions/*:Workload.CountersAggregatedFromThreadShardsMatchSingleThread:Simulation.ResumeContinuesBitwise:VirtualMachine.RunCyclesMatchesEngineEveryCycle:JobsRuntime.SixteenConcurrentJobsMatchSoloRunsBitwise:JobsRuntime.KilledJobResumesBitwiseAndStitchesFrames:JobsRuntime.PauseHoldsAndUnpauseCompletes}"
  TSAN_OPTIONS="halt_on_error=1 history_size=7" \
    ./build-tsan/tests/anton_tests --gtest_filter="$filter"
}

case "$MODE" in
  --unit-only) unit ;;
  --tier1-only) tier1 ;;
  --tsan-only) tsan ;;
  --vm) vm ;;
  --faults) faults ;;
  --transport) transport ;;
  --jobs) jobs_gate ;;
  --spmd) spmd ;;
  --kernels) kernels ;;
  all|"") tier1; tsan ;;
  *) echo "unknown mode: $MODE" >&2; exit 2 ;;
esac

echo "== all checks passed =="
