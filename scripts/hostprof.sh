#!/usr/bin/env bash
# Host-side CPU profile of one hostbench workload.
#
#   scripts/hostprof.sh WORKLOAD [CALLS]     # e.g. scripts/hostprof.sh table96 4
#
# Builds the hostbench harness with frame pointers and debug info into
# .hostprof_build/ (Release otherwise), preloads the SIGPROF sampler
# (scripts/hostprof/sampler.c) into CALLS workload calls at the golden seed,
# and prints self and inclusive shares plus the event queue / table store /
# strings / libc buckets (scripts/hostprof/report.py). Needs gcc, python3 and
# binutils (addr2line, nm). Samples land in .hostprof_build/samples/.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/hostprof.sh WORKLOAD [CALLS]" >&2
  exit 2
fi
WORKLOAD="$1"
CALLS="${2:-4}"
BUILD=.hostprof_build
JOBS="$(( $(nproc) < 4 ? $(nproc) : 4 ))"

if [[ ! -f "${BUILD}/CMakeCache.txt" ]]; then
  cmake -S hostbench -B "${BUILD}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g" >&2
fi
cmake --build "${BUILD}" -j "${JOBS}" >&2
gcc -O2 -Wall -Wextra -shared -fPIC -o "${BUILD}/libhostprof.so" \
  scripts/hostprof/sampler.c

OUT="${BUILD}/samples/${WORKLOAD}"
mkdir -p "${BUILD}/samples"
rm -f "${OUT}".*.txt "${OUT}".*.maps
for _ in $(seq "${CALLS}"); do
  HOSTPROF_OUT="${OUT}" LD_PRELOAD="${PWD}/${BUILD}/libhostprof.so" \
    "${BUILD}/hostbench" --child run --workload "${WORKLOAD}" >/dev/null
done
python3 scripts/hostprof/report.py "${OUT}"
