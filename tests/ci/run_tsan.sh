#!/bin/sh
# Builds the whole tree under ThreadSanitizer (the "tsan" CMake preset)
# and runs the concurrency-heavy suites under it: the build service's
# daemon/protocol/session tests, the artifact-cache disk-write race
# regression and the smoke-sized concurrent rebuild-storm bench (the
# "service" ctest label), plus the pipeline's thread-pool fan-out (the
# "parallel" label): the fused build, including phase 1's IR files and
# points-to facts handed to phase 2, the same phase bodies run as one
# Summary and one Object request carrying every module, and two threads
# analyzing through one shared analyzer session, whose kept summaries
# and retained delta state they both read and replace. The delta
# analyzer suites (the "delta" label) run too: an incremental run
# re-discovers the damaged globals' webs on the same thread-pool fan-out
# as a cold run, at 8 threads in EditSequenceMatchesAtEightThreads.
#
# Usage: tests/ci/run_tsan.sh [jobs]
set -eu

JOBS=${1:-2}
ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)

cmake --preset tsan -S "$ROOT"
cmake --build --preset tsan -j "$JOBS"
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS" \
      -L 'service|parallel|delta'
