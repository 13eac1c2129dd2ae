#!/usr/bin/env bash
# CI entry point: builds the Release and ASan+UBSan configurations and runs
# the full test suite under both. Every configuration compiles with warnings
# as errors. Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"
  shift
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON "$@"
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
  # reason, including the balancer benchmark's smoke run, which drives an
  # actual rebalance end-to-end in this configuration.
  echo "=== partition ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L partition
  # The integrity suite re-runs by label: the replica fan-out, the ledger
  # writes and the post-restart scrub are coroutine paths whose lifetime
  # bugs only the sanitizer configuration catches.
  echo "=== integrity ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L integrity
  # The kernel suite re-runs by label: the event queue owns every frame
  # that has not run yet and destroys the ones still pending at teardown,
  # lifetime paths that only the sanitizer configuration checks.
  echo "=== kernel ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L kernel
  # The retry suite re-runs by label: with_retry rethrows from catch
  # handlers inside a coroutine frame and resumes after the backoff, a
  # lifetime path that only the sanitizer configuration checks.
  echo "=== retry ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L retry
  # The parallel-kernel suite re-runs by label: the byte-parity contract
  # (threads=N identical to threads=1) must hold under sanitizers too.
  echo "=== parallel ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L parallel
  # The open-loop load suite (load_test) re-runs by label: arrival
  # statistics, the admission window and the session-pool lifecycle. The
  # saturation sweep itself is four golden-pinned specs,
  # scenarios/saturation_*.json (label `golden`).
  echo "=== load ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L load
  # The geo-replication suite re-runs by label (bounded-staleness shipping,
  # the region-failover drill, cross-stamp reconciliation), including the
  # drill benchmark's smoke run: an end-to-end region-loss drill with
  # byte-identical replay (--selfcheck) plus the built-in RPO bound
  # (staleness-at-failover <= the provisioned target).
  echo "=== geo ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L geo
  # The scenario suite re-runs by label (DSL diagnostics, generator KATs,
  # flag-parsing regressions, byte-identical driver replays, and the
  # generic driver's smoke run, which proves end-to-end replay determinism
  # in this configuration). The goldens (label `golden`) are excluded from
  # this re-run in the sanitizer lap: the full ctest pass above already
  # diffed them once, and a second minutes-long pass under ASan adds
  # nothing.
  echo "=== scenario ${dir} ==="
  if [[ "${dir}" == *sanitize* ]]; then
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      -L scenario -LE golden
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L scenario
  fi
  # The driver suite re-runs by label: backend conformance (the same op
  # contract asserted against azure, s3, and tiered), the S3 throttling /
  # visibility-lag semantics, and the cross-backend scenario packs'
  # byte-identical --selfcheck replays. Coroutine-heavy code over three
  # driver implementations — exactly what the sanitizer lap exists for.
  echo "=== driver ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L driver
}

# TSan config: builds only the parallel-kernel suite and runs it under
# ThreadSanitizer. This is the configuration that gates the barrier hand-off
# in src/simcore/parallel.{hpp,cpp}: each domain's outbox, staging heap and
# simulation are written by the worker that owns the domain during a window
# and read by the barrier's completion step between windows.
run_tsan() {
  local dir="build-ci-tsan"
  echo "=== configure ${dir} (ThreadSanitizer) ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON -DAZUREBENCH_SANITIZE_THREAD=ON
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

# hostbench (the host-side simulator benchmark) builds its own Release
# harness into .bench_build/. Its tests check the harness; one short run per
# workload checks the seed-42 output digest in hostbench/golden.txt, so a
# change that moves the simulated output fails here (exit 1).
run_hostbench() {
  echo "=== hostbench tests ==="
  python3 hostbench/test_hostbench.py
  echo "=== hostbench golden digests ==="
  local w
  for w in table96 blob96 mixed_open sharded8; do
    python3 hostbench/run.py --workload "${w}" --seconds 1 --trace 0
  done
}

run_config build-ci-release -DCMAKE_BUILD_TYPE=Release
run_hostbench
run_tidy build-ci-release
run_config build-ci-sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAZUREBENCH_SANITIZE=ON
run_tsan

echo "=== all configurations green ==="
