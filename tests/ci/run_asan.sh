#!/bin/sh
# Builds the whole tree under AddressSanitizer (the "asan" CMake
# preset) and runs six groups of suites under it:
#
#  - the allocation-heavy build-service suite: bounded-cache LRU
#    eviction, session persistence/restore, the daemon/protocol/transport
#    tests (hostile frame parsing included), the smoke-sized
#    rebuild-storm bench, and serializer_fuzz_test, which feeds mutated
#    wire configs, replies and retained blobs to their decoders (the
#    "service" ctest label);
#  - the liveness solver and its callers: support_test, liveness_test,
#    opt_test, opt_schedule_test, codegen_test, regalloc_stress_test
#    and linkopt_test, plus artifact_digest_test, the byte-identity
#    fence over every corpus cell, and graph_test, the RPO, dominator
#    and SCC kit the CFGs and the call graph index by (the "dataflow"
#    label). The solver indexes bitsets by register number and
#    DynBitset checks bounds only with assert, so ASan is what catches
#    an out-of-universe register in a release-style build; constant
#    propagation keeps sorted fact vectors and the allocator sorted
#    edge lists, index arithmetic the digest fence drives over real
#    programs;
#  - the delta analyzer suites (the "delta" label): the retained-run
#    restore parses blobs from disk through the same JSON record codec
#    as the wire request;
#  - the readers of text from disk and from the cache (the "codec"
#    label): the artifact line codec's (summary_test, objectio_test,
#    analyzer_test), which parse summary, database and object text, and
#    the JSON parser's (json_edge_test), which decodes every wire
#    request and every session file read from disk. A hostile or
#    corrupted input must be rejected without reading out of bounds;
#  - the two oracles (the "oracle" label): interp_test, simulator_test,
#    oracle_digest_test, paper_tables_test, the smoke-sized oracle
#    bench, its usage check and the operator kernel's spec table
#    (arith_spec_test). The simulator predecodes the code array and
#    keeps a pc-to-symbol table, and the interpreter a per-instruction
#    symbol table by function, block and position: index arithmetic
#    over those arrays, where an off-by-one reads out of bounds without
#    changing a result;
#  - the mcc command-line workflow (the "cli" label): mcc turns every
#    mode into one build request and prints from the one response, so
#    the dispatch reads source, summary, database and object files and
#    the daemon's replies (the service workflow rides the "service"
#    label).
#
# Usage: tests/ci/run_asan.sh [jobs]
set -eu

JOBS=${1:-2}
ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)

cmake --preset asan -S "$ROOT"
cmake --build --preset asan -j "$JOBS"
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS" \
      -L 'service|dataflow|delta|codec|oracle|cli'
