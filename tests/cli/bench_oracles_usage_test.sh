#!/usr/bin/env bash
# bench_oracles --help: usage text, exit 2, and nothing timed or written
# (in particular no BENCH_oracles.json in the working directory).
set -uo pipefail
BENCH="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

OUT="$("$BENCH" --help 2>&1)"
RC=$?
fail() {
  echo "FAIL: $*"
  echo "$OUT"
  exit 1
}
[ "$RC" -eq 2 ] || fail "exit code $RC, expected 2"
case "$OUT" in
*"usage: bench_oracles"*) ;;
*) fail "no usage text" ;;
esac
case "$OUT" in
*"Oracle speed"*) fail "timed the corpus" ;;
esac
[ ! -e BENCH_oracles.json ] || fail "wrote BENCH_oracles.json"
[ -z "$(ls -A)" ] || fail "left files behind: $(ls -A)"
echo "PASS: bench_oracles --help exits 2 and writes nothing"
