#!/usr/bin/env bash
# Sanitizer gate: configure a dedicated build tree with the requested
# sanitizers, build everything, and run the test suite.
#
#   $ tools/check.sh                 # ASan+UBSan (default)
#   $ tools/check.sh tsan            # ThreadSanitizer on the threaded tests
#   $ tools/check.sh perf            # Release micro-bench: planner, learner, perf kernels
#   $ tools/check.sh serve           # TSan serving tests + closed/open-loop loadgen smoke
#   $ tools/check.sh fleet           # TSan fleet tests + 100-tenant smoke
#   $ tools/check.sh autopilot       # TSan autopilot tests + bench smoke
#   $ tools/check.sh storage         # ASan+UBSan storage/engine + compression smoke
#   $ tools/check.sh search          # ASan+UBSan search/pruning/inference tests + DP bench smoke
#   $ LPA_SANITIZE=undefined tools/check.sh
#   $ BUILD_DIR=build-asan tools/check.sh
#   $ CTEST_FILTER=advisor tools/check.sh tsan
#
# The default, tsan and perf presets build with -Werror on top of the
# project's -Wall -Wextra: the build stays warning-free, Release included.
#
# The tsan preset builds with -DLPA_SANITIZE=thread into build-tsan and, by
# default, runs only the tests that exercise the parallel evaluation engine
# (parallel_eval_test, with the learner step on a blocked and on a shared
# pool, two agents training at once on child contexts of one pool, and every
# TPC-CH query priced from 4 pool threads against the serial bits, which
# exercises the planner's per-thread scratch), the actor/learner rounds
# (actor_learner_test: a round's slots select actions from one agent on the
# pool, and the reward and weight digests must match at 1, 2 and 8 threads),
# rl_test, the learner's regions (learner_golden_test at 1/2/4/8 threads),
# every compiled SIMD variant of the nn/ kernels against the scalar loops
# (nn_kernels_test), the inference rollouts
# (extra rollouts on the pool, and serial on the non-thread-safe online
# environment), the execution engine
# (engine_exec_test: pooled scan/shuffle/join kernels at 2 and 8 threads,
# query batches run side by side at 2 and 8 threads, concurrent plan-cache
# lookups through a pooled ExecuteWorkload, and the planner's depth-noise
# memo warmed from 8 threads), the online environment (online_golden_test:
# each step's uncached queries run side by side on 4 and 8 threads, sharing
# the sampled cluster's plan cache, the planner's noise memo and the engine
# counters) and the serving subsystem (TSan slows everything ~10x; the
# serial tests gain nothing from it).
#
# The serve preset builds serving_test and lpa_loadgen under TSan, runs the
# serving tests (served results bit-identical to serial at 1/2/4/8 workers),
# then drives two loadgen smokes: ~5 seconds of closed-loop traffic (1/2/8
# workers with a halftime hot swap) and 1.5 seconds of open-loop arrivals at
# 2 workers, where requests land regardless of replies and may queue, be
# rejected or be shed. The loadgen asserts its correctness counters — every
# request completed, rejected, or shed; zero dropped — and exits non-zero on
# violation; BENCH_serving.json (of the last run) lands in $LPA_METRICS_DIR
# (or build-tsan).
#
# The fleet preset builds the multi-tenant fleet tests and lpa_loadgen under
# TSan, runs the fleet + serving tests, then drives a 100-tenant loadgen
# smoke (Zipf tenant popularity, 4 shards, per-tenant quotas, halftime hot
# swap of the hottest tenants). The loadgen exits non-zero on any dropped
# request, counter inconsistency, or token-bucket quota violation; those
# correctness counters are what the smoke asserts (listed in
# BENCH_serving.json metadata as gates), and throughput per worker count is
# reported there.
#
# The autopilot preset builds autopilot_test + serving_test + bench_autopilot
# under TSan (the closed loop hot-swaps models while servers serve, and the
# async retrain trains on a background thread — exactly the interleavings
# TSan exists for), runs both test suites, then drives the bench_autopilot
# scenario sweep at LPA_BENCH_SCALE=4. The bench enforces its own acceptance
# gates (zero false swaps on stable, detection + recovery on every drift
# event, >= 1 automatic rollback in the forced-regression drill) and exits
# non-zero on violation; BENCH_autopilot.json lands in $LPA_METRICS_DIR (or
# build-tsan). Like the fleet smoke, it asserts correctness counters and
# recovery ratios, and reports wall-clock times.
#
# The storage preset builds the compressed-storage surface under ASan+UBSan
# and runs storage_test + engine_exec_test + encoder_golden_test +
# online_golden_test. The first three are the compression smoke: every
# encoding round-trips property-tested inputs (both sides of the dictionary
# cap included), the testbeds compress >= 2x, the golden encoder test pins
# the encoding and bytes of every master and shard the SSB, TPC-CH and
# TPC-DS testbeds seal and checks the encoder against the reference copy of
# the previous one, and EncodedExecTest compares the encoded engine against
# an uncompressed cluster with exact equality on every QueryRunStats field at
# 1/2/8 threads (plus the encoded-pricing, BulkAppend re-seal and kept-layout
# paths). Bit-packing is exactly the kind of code UBSan exists for. The
# online golden test replays the online environment over seeded designs
# that revisit kept shard layouts, serial and on 4 and 8 threads, and pins
# every cost, the accounting, the movement counters and the final shards.
#
# The search preset builds the design-search subsystem (src/search/) under
# ASan+UBSan and runs search_test (DP (1+ε) certificate vs exhaustive
# enumeration, admissible floors, pruned-Suggest bit-identity at 1/2/8
# threads), dp_golden_test (the DP designer's design, cost, certificate and
# node counts on TPC-CH, SSB and TPC-DS, exact and noisy models, pinned bit
# for bit), parallel_eval_test and inference_test (golden results and
# counters of every Suggest path, pruned ones included), then drives the
# bench_exp1_offline verification sections (--baseline dp): the micro
# exhaustive gate and the pruned-vs-unpruned Suggest counter checks, exiting
# non-zero on violation.
# The gates assert digests and counters; wall-clock columns are informational.
#
# The perf preset builds Release with -Werror into build-perf, checks that
# the lpa_nn archive contains no fused multiply-add (vfmadd/vfmsub/vfnmadd/
# vfnmsub: one would round differently from the separate multiply and add
# that every trained weight depends on), and runs bench_micro_components with
# the cost-model planner benchmarks (BM_CostModelPlan*), the DP designer on
# perfbench design_tpcch's settings (BM_DpDesignTpcch), the learner benchmarks
# (BM_DqnTrainStep* on SSB and TPC-CH, serial and on a 4-thread pool, over
# a replay of one repeated transition, and BM_DqnTrainStepTpcchReplay over
# 5,400 transitions of 150 TPC-CH episodes, BM_TrainOfflineSsb* for perfbench serve_ssb's design phase, serial and on
# 4 threads, and BM_MlpForward128x64), the storage benchmarks (BM_GenerateSsbDatabase,
# BM_SealSsbFactTable, BM_RepartitionFactTable: a cold repartition on a fresh
# cluster) and the online-engine benchmarks (BM_OnlineEnvTpcchSample*: the
# seeded online replay of tests/online_golden_test.cpp on perfbench
# refine_tpcch's 20% sample, serial and on a 4-thread pool), warm
# per-step workload pricing through the query cost memo
# (BM_OfflineEnvStepCost{Ssb,Tpcch}) and the three single-iteration kernel
# benchmarks: BM_StorageKernel (encode/decode MB/s per encoding and
# per-column compression), BM_EngineKernel (pool-parallel ExecuteWorkload at
# 1/2/8 threads with bit-identity digest checks) and BM_TrainingKernel
# (actor/learner rounds at 1/2/8 threads with bit-identity digest checks,
# and serial Train beside them). BENCH_storage.json, BENCH_engine.json and
# BENCH_training.json land in $LPA_METRICS_DIR (or build-perf).
set -euo pipefail

cd "$(dirname "$0")/.."

PRESET="${1:-}"
if [[ "${PRESET}" == "perf" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-perf}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, Release, -Werror) =="
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror > /dev/null
  echo "== build bench_micro_components =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_micro_components
  echo "== no fused multiply-add in lpa_nn =="
  objdump -d "${BUILD_DIR}/src/nn/liblpa_nn.a" > "${BUILD_DIR}/lpa_nn.dis"
  if grep -E 'vfn?m(add|sub)' "${BUILD_DIR}/lpa_nn.dis"; then
    echo "== FAIL: lpa_nn contains FMA instructions (see above) =="
    exit 1
  fi
  echo "== planner + learner + storage + online-engine + step-pricing benchmarks + kernels: storage + engine (pool-parallel) + training =="
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
    "${BUILD_DIR}/bench/bench_micro_components" \
      --benchmark_filter='CostModelPlan|DpDesign|DqnTrainStep|TrainOffline|MlpForward|Seal|RepartitionFactTable|GenerateSsb|OnlineEnv|OfflineEnvStepCost|Kernel'
  echo "== OK: matching digests above = bit-identical results; see BENCH_engine.json =="
  exit 0
fi
if [[ "${PRESET}" == "serve" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=thread) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build serving_test + lpa_loadgen =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target serving_test lpa_loadgen
  echo "== serving tests (TSan) =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -R serving_test
  echo "== loadgen smoke: 1/2/8 workers, hot swap at halftime =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/tools/lpa_loadgen" --schema micro --episodes 16 \
      --workers 1,2,8 --duration 1.5 --hotswap
  echo "== loadgen smoke: open loop, 2 workers =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/tools/lpa_loadgen" --schema micro --episodes 16 \
      --workers 2 --duration 1.5 --mode open --qps 400
  echo "== OK: serving tests TSan-clean, loadgen counters consistent =="
  exit 0
fi
if [[ "${PRESET}" == "fleet" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=thread) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build fleet_test + serving_test + lpa_loadgen =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target fleet_test serving_test \
    lpa_loadgen
  echo "== fleet + serving tests (TSan) =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'fleet_test|serving_test'
  echo "== fleet smoke: 100 tenants, 4 shards, quotas, halftime hot swap =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/tools/lpa_loadgen" --schema micro --episodes 16 \
      --tenants 100 --shards 4 --workers 2 --clients 3 --duration 2 \
      --hotswap --quota-rate 200 --quota-burst 50
  echo "== OK: fleet TSan-clean; zero drops, zero quota violations =="
  exit 0
fi
if [[ "${PRESET}" == "autopilot" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=thread) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build autopilot_test + serving_test + bench_autopilot =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target autopilot_test \
    serving_test bench_autopilot
  echo "== autopilot + serving tests (TSan) =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'autopilot_test|serving_test'
  echo "== autopilot smoke: scenario sweep with acceptance gates =="
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/bench/bench_autopilot" --schema micro
  echo "== OK: autopilot TSan-clean; zero false swaps, recovery + rollback verified =="
  exit 0
fi
if [[ "${PRESET}" == "storage" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-sanitize}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=address,undefined) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build storage_test + engine_exec_test + encoder_golden_test + online_golden_test =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target storage_test \
    engine_exec_test encoder_golden_test online_golden_test
  echo "== storage + engine + encoder + online tests (ASan+UBSan), incl. compression smoke =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'storage_test|engine_exec_test|encoder_golden_test|online_golden_test'
  echo "== OK: encodings round-trip, golden encoder bytes, >=2x compression, encoded engine bit-identical, online golden =="
  exit 0
fi
if [[ "${PRESET}" == "search" ]]; then
  BUILD_DIR="${BUILD_DIR:-build-sanitize}"
  JOBS="$(nproc 2>/dev/null || echo 4)"
  echo "== configure (${BUILD_DIR}, -fsanitize=address,undefined) =="
  cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "== build search_test + dp_golden_test + parallel_eval_test + inference_test + bench_exp1_offline =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target search_test \
    dp_golden_test parallel_eval_test inference_test bench_exp1_offline
  echo "== search + DP golden + pruning + inference tests (ASan+UBSan) =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
      -R 'search_test|dp_golden_test|parallel_eval_test|inference_test'
  echo "== bench smoke: DP (1+eps) certificate + pruned-Suggest bit-identity =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  LPA_METRICS_DIR="${LPA_METRICS_DIR:-${BUILD_DIR}}" \
  LPA_BENCH_SCALE="${LPA_BENCH_SCALE:-4}" \
    "${BUILD_DIR}/bench/bench_exp1_offline" --baseline dp --epsilon 0.1
  echo "== OK: DP within (1+eps) of exhaustive, pruned Suggest bit-identical at 1/2/8 threads =="
  exit 0
fi
if [[ "${PRESET}" == "tsan" ]]; then
  SANITIZE="${LPA_SANITIZE:-thread}"
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  CTEST_FILTER="${CTEST_FILTER:-parallel_eval_test|actor_learner_test|rl_test|learner_golden_test|nn_kernels_test|inference_test|engine_exec_test|online_golden_test|serving_test|fleet_test}"
else
  SANITIZE="${LPA_SANITIZE:-address,undefined}"
  BUILD_DIR="${BUILD_DIR:-build-sanitize}"
  CTEST_FILTER="${CTEST_FILTER:-}"
fi
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (${BUILD_DIR}, -fsanitize=${SANITIZE}, -Werror) =="
cmake -B "${BUILD_DIR}" -S . -DLPA_SANITIZE="${SANITIZE}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror > /dev/null

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== test =="
CTEST_ARGS=(--test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}")
if [[ -n "${CTEST_FILTER}" ]]; then
  CTEST_ARGS+=(-R "${CTEST_FILTER}")
fi
# halt_on_error makes sanitizer failures fail the test run, not just log.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest "${CTEST_ARGS[@]}"

echo "== OK: build and tests are clean under ${SANITIZE} =="
