#!/usr/bin/env bash
# CI entry point: builds the Release and ASan+UBSan configurations and runs
# the full test suite under both. Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"
  shift
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@"
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== test ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  # The chaos suite (fault injection over the paper workloads) runs again
  # explicitly by label so a regression in it is loud and attributable.
  # Every chaos test carries a 60 s wall-clock budget (TIMEOUT property).
  echo "=== chaos ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L chaos
  # The observability suite likewise re-runs by label: its byte-identical
  # replay contract must hold in the sanitizer configuration too (ASan
  # changes allocation patterns, which the obs layer must be immune to).
  echo "=== obs ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L obs
  # The partition-map / load-balancer suite re-runs by label for the same
  # reason, and the balancer benchmark's smoke run proves the binary drives
  # an actual rebalance end-to-end in this configuration.
  echo "=== partition ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L partition
  "${dir}/bench/bench_ext_partition_lb" --smoke
  # The parallel-kernel suite re-runs by label: the byte-parity contract
  # (threads=N identical to threads=1) must hold under sanitizers too.
  echo "=== parallel ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L parallel
  # The open-loop load suite re-runs by label (arrival statistics, admission
  # window, session-pool lifecycle), and the saturation bench's smoke run
  # proves the binary produces a byte-identical sweep (--selfcheck runs the
  # populations twice and compares) in this configuration.
  echo "=== load ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L load
  "${dir}/bench/bench_ext_load" --smoke --selfcheck
  # The geo-replication suite re-runs by label (bounded-staleness shipping,
  # the region-failover drill, cross-stamp reconciliation), and the drill
  # benchmark's smoke run proves an end-to-end region-loss drill in this
  # configuration: byte-identical replay (--selfcheck) plus the built-in
  # RPO bound (staleness-at-failover <= the provisioned target).
  echo "=== geo ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L geo
  "${dir}/bench/bench_ext_geo" --smoke --selfcheck
  # The scenario suite re-runs by label (DSL diagnostics, generator KATs,
  # flag-parsing regressions, byte-identical driver replays), and the
  # generic driver's smoke run proves end-to-end replay determinism in this
  # configuration. The full-paper-scale figure goldens (label `golden`) are
  # excluded from this re-run in the sanitizer lap: the full ctest pass
  # above already diffed them once, and a second minutes-long pass under
  # ASan adds nothing.
  echo "=== scenario ${dir} ==="
  if [[ "${dir}" == *sanitize* ]]; then
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      -L scenario -LE golden
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L scenario
  fi
  "${dir}/bench/bench_scenario" --smoke --selfcheck
  # The driver suite re-runs by label: backend conformance (the same op
  # contract asserted against azure, s3, and tiered), the S3 throttling /
  # visibility-lag semantics, and the cross-backend scenario packs'
  # byte-identical --selfcheck replays. Coroutine-heavy code over three
  # driver implementations — exactly what the sanitizer lap exists for.
  echo "=== driver ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L driver
}

# TSan config: builds only the parallel-kernel suite and runs it under
# ThreadSanitizer. This is the configuration that gates the hand-rolled
# release/acquire protocol in src/simcore/parallel.{hpp,cpp} (mailbox
# cursors, published eot bounds, in-flight accounting).
run_tsan() {
  local dir="build-ci-tsan"
  echo "=== configure ${dir} (ThreadSanitizer) ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DAZUREBENCH_SANITIZE_THREAD=ON
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}" --target parallel_test
  echo "=== parallel under TSan ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L parallel
}

run_tidy() {
  local dir="$1"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "=== clang-tidy not found on PATH; skipping static analysis ==="
    return 0
  fi
  echo "=== clang-tidy (${dir}) ==="
  # Checks come from the checked-in .clang-tidy (bugprone-*, performance-*).
  # Headers are covered transitively via HeaderFilterRegex.
  local srcs
  srcs=$(find src tests bench examples -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    run-clang-tidy -p "${dir}" -quiet -j "${JOBS}" ${srcs}
  else
    # shellcheck disable=SC2086
    clang-tidy -p "${dir}" --quiet ${srcs}
  fi
  # The obs layer, the load engine, and the geo-replication layer are the
  # newest subsystems and their hot paths are all pointer and lifetime
  # discipline (coroutines holding references across suspension points) —
  # hold them to a hard bugprone-* gate (warnings fail the build) rather
  # than the advisory repo-wide pass above.
  echo "=== clang-tidy hard gate: src/obs + src/framework + src/cluster" \
       "+ src/storage ==="
  # scenario.cpp carries the DSL parser (hand-rolled recursive descent over
  # raw pointers) and scenario_test.cpp is the TU that instantiates the
  # whole keygen + runner header stack — both join the hard gate. The
  # storage driver layer joins too: every method is a coroutine dispatching
  # across backend state, the precise lifetime territory the gate polices.
  clang-tidy -p "${dir}" --quiet --warnings-as-errors='bugprone-*' \
    src/obs/observer.cpp src/framework/load_engine.cpp \
    src/framework/scenario.cpp src/cluster/geo_replication.cpp \
    src/storage/driver.cpp src/storage/azure_driver.cpp \
    src/storage/s3_object_service.cpp src/storage/s3_driver.cpp \
    src/storage/tiered_driver.cpp \
    tests/scenario_test.cpp
}

run_config build-ci-release -DCMAKE_BUILD_TYPE=Release
run_tidy build-ci-release
run_config build-ci-sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAZUREBENCH_SANITIZE=ON
run_tsan

echo "=== all configurations green ==="
