#!/usr/bin/env bash
# Repo CI: tier-1 verify (full build + ctest, which includes the
# lead_lint tree scan and the lint fixture tests), a static-analysis
# stage (lead_lint over the tree with --report-allows plus a --json
# smoke, a -DLEAD_WERROR=ON configure that promotes
# -Wshadow/-Wconversion to errors, a -DLEAD_THREAD_SAFETY=ON clang build
# that machine-checks the capability annotations in common/annotate.h,
# and clang-tidy — the clang stages skip with a notice when clang is not
# on PATH), a fuzz stage over the io parsers (libFuzzer for 30s per
# target under clang, standalone corpus replay otherwise), a
# -DLEAD_CHECK_SHAPES=ON build running the nn/batch/autograd
# suites plus the contract death tests, a fault-injection pass (explicit
# -DLEAD_FAULT_INJECTION=ON build running the robustness and chaos
# suites, then re-running the env-armed degradation test under each
# LEAD_FAULT chaos point), an
# observability pass (the lead and parity suites traced via the
# LEAD_TRACE_OUT/LEAD_METRICS_OUT env autostart, with the emitted trace
# checked for every pipeline category, the disabled-span/recorder-span
# overhead benchmarks and the inference-kernel microbenchmarks), a
# post-mortem pass (a LEAD_FAULT stall drives the
# watchdog into writing a leaddump-*.json that must render through
# `lead_cli obs report` with the right cause, the sampling profiler must
# attribute >=90% of fig8 samples to named span categories, and
# bench_trend prints its warn-only trend table), an
# ASan/UBSan-instrumented build of the nn-layer, io/serialize,
# execution-plan and inference-kernel tests
# (the batched step kernels, autograd, plan arenas, scratch leases and
# binary checkpoint parsing are where memory bugs would hide), and a TSan build of the multi-threaded
# suites (parallel parity, resilience under parallel training, and the
# end-to-end lead tests).
#
# Usage: ./ci.sh [--skip-sanitizers]
set -euo pipefail
cd "$(dirname "$0")"

SKIP_SAN=0
[[ "${1:-}" == "--skip-sanitizers" ]] && SKIP_SAN=1

echo "=== tier-1: configure + build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "=== static analysis: lead_lint over the source tree ==="
cmake --build build -j --target lead_lint >/dev/null
# --report-allows keeps the suppression inventory honest (a marker whose
# finding was fixed fails the run); the --json invocation smoke-tests the
# machine-readable mode CI dashboards consume.
./build/tools/lead_lint --report-allows src tests bench cli tools perfbench
./build/tools/lead_lint --json src tests bench cli tools perfbench >/dev/null

echo "=== static analysis: LEAD_WERROR build (-Wshadow/-Wconversion as errors) ==="
cmake -B build-werror -S . -DLEAD_WERROR=ON >/dev/null
cmake --build build-werror -j

if command -v clang++ >/dev/null 2>&1; then
  echo "=== static analysis: clang thread-safety capabilities (LEAD_THREAD_SAFETY) ==="
  # Whole-tree build with -Wthread-safety{,-beta} promoted to errors:
  # every LEAD_GUARDED_BY/LEAD_REQUIRES contract in common/annotate.h is
  # machine-checked, including interleavings TSan never schedules.
  cmake -B build-capability -S . -DLEAD_THREAD_SAFETY=ON \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-capability -j
else
  echo "=== static analysis: clang++ not on PATH; thread-safety analysis skipped ==="
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== static analysis: clang-tidy (bugprone/performance/concurrency) ==="
  # Tidy the library sources against the tier-1 compile database.
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cc' -print0 |
    xargs -0 -P "$(nproc)" -n 8 clang-tidy -p build --quiet
else
  echo "=== static analysis: clang-tidy not on PATH; skipped ==="
fi

echo "=== fuzz: io-parser harnesses (LEAD_FUZZERS) ==="
FUZZ_TARGETS=(fuzz_csv fuzz_gpx fuzz_geojson)
if command -v clang++ >/dev/null 2>&1; then
  # Real libFuzzer run, wall-clock-bounded per target, seeded from the
  # checked-in corpora.
  cmake -B build-fuzz -S . -DLEAD_FUZZERS=ON \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-fuzz -j --target "${FUZZ_TARGETS[@]}"
  for fmt in csv gpx geojson; do
    echo "--- fuzz_$fmt (libFuzzer, 30s) ---"
    "./build-fuzz/tools/fuzz/fuzz_$fmt" -max_total_time=30 \
      -print_final_stats=1 "tools/fuzz/corpus/$fmt"
  done
else
  # No clang: the standalone drivers still replay every corpus file, so
  # the harness code and seed inputs stay exercised.
  echo "--- clang++ not on PATH; corpus replay via standalone drivers ---"
  cmake -B build-fuzz -S . -DLEAD_FUZZERS=ON >/dev/null
  cmake --build build-fuzz -j --target "${FUZZ_TARGETS[@]}"
  for fmt in csv gpx geojson; do
    echo "--- fuzz_$fmt (corpus replay) ---"
    "./build-fuzz/tools/fuzz/fuzz_$fmt" tools/fuzz/corpus/"$fmt"/*
  done
fi

echo "=== contracts: LEAD_CHECK_SHAPES build of the nn/batch/autograd suites ==="
# RelWithDebInfo minus -DNDEBUG so LEAD_DCHECK index checks are live too.
cmake -B build-shapes -S . -DLEAD_CHECK_SHAPES=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" >/dev/null
SHAPE_TESTS=(matrix_test autograd_test layers_test optim_test optim2_test \
             ops_reference_test batch_test autoencoder_test contract_test \
             infer_kernel_test vec_math_test)
cmake --build build-shapes -j --target "${SHAPE_TESTS[@]}"
for t in "${SHAPE_TESTS[@]}"; do
  echo "--- $t (LEAD_CHECK_SHAPES) ---"
  "./build-shapes/tests/$t"
done

echo "=== fault injection: robustness suites with LEAD_FAULT_INJECTION=ON ==="
cmake -B build-fault -S . -DLEAD_FAULT_INJECTION=ON >/dev/null
FAULT_TESTS=(serialize_robustness_test resilience_test parallel_parity_test \
             io_test gpx_test chaos_test fast_mode_test)
cmake --build build-fault -j --target "${FAULT_TESTS[@]}"
for t in "${FAULT_TESTS[@]}"; do
  echo "--- $t (fault injection) ---"
  "./build-fault/tests/$t"
done

echo "=== chaos: runtime fault activation via LEAD_FAULT ==="
# End-to-end check of the env-var chaos path (fault.h): each armed point
# must degrade the batch gracefully — bounded wall clock, coherent
# partial results — without a rebuild. The ':0' spec arms persistently.
for point in io.read.stall io.read.stall:0 pool.task.stall alloc.fail; do
  echo "--- LEAD_FAULT=$point ---"
  LEAD_FAULT="$point" LEAD_FAULT_STALL_MS=500 \
    ./build-fault/tests/chaos_test \
    --gtest_filter='ChaosDetectTest.EnvArmedFaultsDegradeGracefullyWithinBounds'
done

echo "=== observability: traced suites via LEAD_TRACE_OUT/LEAD_METRICS_OUT ==="
# The env autostart must leave a Chrome-format trace covering the
# pipeline categories and a metrics snapshot with the loss series, and
# tracing must not change any test outcome (the suites assert their own
# bit-parity). BM_TraceOverhead guards the disabled-span cost.
OBS_DIR="build/obs-ci"
mkdir -p "$OBS_DIR"
LEAD_TRACE_OUT="$OBS_DIR/lead_trace.json" \
  LEAD_METRICS_OUT="$OBS_DIR/lead_metrics.json" \
  ./build/tests/lead_test --gtest_filter='LeadEndToEnd.TrainedLeadBeatsChance'
LEAD_TRACE_OUT="$OBS_DIR/parity_trace.json" \
  LEAD_METRICS_OUT="$OBS_DIR/parity_metrics.json" \
  ./build/tests/parallel_parity_test
for cat in preprocess poi batch ae det infer; do
  grep -q "\"cat\":\"$cat\"" "$OBS_DIR/lead_trace.json" ||
    { echo "trace is missing category '$cat'" >&2; exit 1; }
done
# Pool spans only exist on the multi-lane path; the parity suite forces
# threads > 1 even on single-core machines.
grep -q '"cat":"pool"' "$OBS_DIR/parity_trace.json" ||
  { echo "parity trace is missing category 'pool'" >&2; exit 1; }
grep -q '"train.autoencoder.loss"' "$OBS_DIR/lead_metrics.json" ||
  { echo "metrics are missing the training loss series" >&2; exit 1; }
# The fused no-grad inference kernels report next to the span guards:
# the detector-shaped recurrence, the small-M GEMM blocks, the
# prefix-shared phase-2 encode and the vector gate nonlinearities against
# the std:: loops.
cmake --build build -j --target micro_substrates >/dev/null
./build/bench/micro_substrates \
  --benchmark_filter='BM_TraceOverhead|BM_RecorderSpan|BM_LstmSequenceInfer|BM_Gemm/./64/256|BM_Phase2Encode|BM_VecTanh|BM_VecSigmoid' \
  --benchmark_min_time=0.05

echo "=== post-mortem: anomaly dump + obs report + sampling profiler ==="
# Force a real watchdog overrun (LEAD_FAULT stall inside detect) against
# the fault build and require the resulting leaddump-*.json to render
# through `lead_cli obs report` with the watchdog cause — the same
# artifact an operator would pull off a wedged production host.
PM_DIR="build/obs-ci/postmortem"
rm -rf "$PM_DIR" && mkdir -p "$PM_DIR"
cmake --build build -j --target lead_cli bench_trend >/dev/null
LEAD_DUMP_DIR="$PM_DIR" ./build-fault/tests/chaos_test \
  --gtest_filter='ChaosDetectTest.StalledStageEmitsPostMortemDump'
DUMP_FILE=$(ls "$PM_DIR"/leaddump-*.json 2>/dev/null | head -n 1)
[[ -n "$DUMP_FILE" ]] ||
  { echo "watchdog overrun left no leaddump-*.json in $PM_DIR" >&2; exit 1; }
./build/cli/lead_cli obs report "$DUMP_FILE" | grep -q "cause: watchdog" ||
  { echo "obs report did not surface the watchdog cause" >&2; exit 1; }
# Sampling-profiler smoke: the fig8 workload under LEAD_PROFILE must
# attribute >=90% of samples to named span categories (everything except
# the '(untracked)' bucket) in the collapsed-stack output.
(cd "$PM_DIR" && LEAD_PROFILE=99 LEAD_PROFILE_OUT=lead.collapsed \
  LEAD_BENCH_SCALE=0.10 ../../bench/fig8_inference_time >/dev/null)
awk '{n=$NF; total+=n; if ($1 !~ /untracked/) attr+=n}
     END {pct = total > 0 ? attr * 100.0 / total : 0;
          printf "profiler attribution: %.1f%% of %d samples\n", pct, total;
          exit (total >= 20 && pct >= 90.0) ? 0 : 1}' \
  "$PM_DIR/lead.collapsed" ||
  { echo "profiler attribution below 90% (or too few samples)" >&2; exit 1; }
# Warn-only trend table over the bench rows the profiled run appended;
# drifting benchmarks get seen here without gating the build.
./build/tools/bench_trend "$PM_DIR"/BENCH_*.json

if [[ "$SKIP_SAN" == "1" ]]; then
  echo "=== sanitizers skipped ==="
  exit 0
fi

echo "=== sanitizers: ASan/UBSan build of the nn tests ==="
SAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
NN_TESTS=(matrix_test autograd_test layers_test optim_test optim2_test \
          ops_reference_test batch_test io_test gpx_test \
          serialize_robustness_test plan_test infer_kernel_test \
          vec_math_test)
cmake --build build-asan -j --target "${NN_TESTS[@]}"
for t in "${NN_TESTS[@]}"; do
  echo "--- $t (ASan/UBSan) ---"
  "./build-asan/tests/$t"
done

echo "=== sanitizers: TSan build of the multi-threaded suites ==="
# -O1 keeps TSan's ~10x slowdown tolerable on the training-heavy suites;
# fault injection stays ON so the rollback/checkpoint paths run under the
# race detector too. halt_on_error turns any report into a hard failure.
TSAN_FLAGS="-fsanitize=thread -O1 -g -fno-omit-frame-pointer"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLEAD_FAULT_INJECTION=ON \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS" >/dev/null
TSAN_TESTS=(obs_test parallel_parity_test resilience_test poi_test plan_test
  chaos_test thread_pool_test fast_mode_test infer_kernel_test vec_math_test)
cmake --build build-tsan -j --target lead_test "${TSAN_TESTS[@]}"
# lead_test runs as its four ctest filter shards (tests/CMakeLists.txt), in
# the background and concurrently, while the other suites run one by one:
# its training shard alone is most of the stage's wall clock. A failing
# suite is recorded, not fatal, until the shards are waited for, so the
# background run never outlives this script.
echo "--- lead_test (TSan, ctest label lead_shard, in the background) ---"
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan -L lead_shard -j4 \
  --output-on-failure > build-tsan/lead_shards.log 2>&1 &
SHARDS_PID=$!
TSAN_FAILED=()
for t in "${TSAN_TESTS[@]}"; do
  echo "--- $t (TSan) ---"
  TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/$t" ||
    TSAN_FAILED+=("$t")
done
wait "$SHARDS_PID" || TSAN_FAILED+=(lead_test)
cat build-tsan/lead_shards.log
[[ ${#TSAN_FAILED[@]} -eq 0 ]] ||
  { echo "failed under TSan: ${TSAN_FAILED[*]}" >&2; exit 1; }
echo "=== ci.sh: all green ==="
