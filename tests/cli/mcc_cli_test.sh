#!/usr/bin/env bash
# End-to-end CLI test of mcc's separate-compilation workflow.
set -euo pipefail
MCC="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

"$MCC" --emit-runtime > runtime.mc
cat > lib.mc <<'SRC'
int counter;
int bump(int x) { counter = counter + x; return counter; }
SRC
cat > main.mc <<'SRC'
int counter;
int bump(int x);
int main() {
  int r = 0;
  for (int i = 0; i < 20; i = i + 1) r = r + bump(i);
  prints("r=");
  print(r);
  print(counter);
  return 0;
}
SRC

# Fused route.
FUSED="$("$MCC" --config C lib.mc main.mc)"

# Phased route, second phase in arbitrary order.
"$MCC" --phase1 lib.mc > lib.sum
"$MCC" --phase1 main.mc > main.sum
"$MCC" --phase1 runtime.mc > runtime.sum
"$MCC" --analyze lib.sum main.sum runtime.sum > prog.db
"$MCC" --phase2 --db prog.db runtime.mc > runtime.o
"$MCC" --phase2 --db prog.db main.mc > main.o
"$MCC" --phase2 --db prog.db lib.mc > lib.o
PHASED="$("$MCC" --link runtime.o main.o lib.o)"

if [ "$FUSED" != "$PHASED" ]; then
  echo "FUSED and PHASED outputs differ:" >&2
  echo "fused:  $FUSED" >&2
  echo "phased: $PHASED" >&2
  exit 1
fi
echo "$FUSED" | grep -q "r=1330" || { echo "unexpected output: $FUSED" >&2; exit 1; }

# The summary reader is strict: a corrupted value is an error naming the
# line and the field, never a guessed number.
sed '0,/ freq=[0-9]*/s// freq=zz/' lib.sum > bad.sum
cmp -s lib.sum bad.sum && { echo "no freq= field to corrupt" >&2; exit 1; }
if "$MCC" --analyze bad.sum main.sum runtime.sum > bad.db 2> bad.txt; then
  echo "--analyze accepted a summary with freq=zz" >&2
  exit 1
fi
grep -q "line [0-9]*: malformed freq=zz" bad.txt \
  || { echo "error does not name line and field:" >&2; cat bad.txt >&2; exit 1; }

# The database names promoted globals.
grep -q "promote counter" prog.db || { echo "no promotion in db" >&2; exit 1; }

# Partial analysis also works on the summaries.
"$MCC" --analyze --partial lib.sum runtime.sum > partial.db
grep -q "proc bump" partial.db || { echo "partial db missing proc" >&2; exit 1; }

# Smart recompilation (7.1): a neutral edit diffs empty, a web-killing
# edit names the procedures to recompile.
sed 's/counter + x/x + counter/' lib.mc > lib2.mc
cmp -s lib.mc lib2.mc && { echo "neutral edit did not change source" >&2; exit 1; }
"$MCC" --phase1 lib2.mc | sed 's/^module lib2$/module lib/' > lib2.sum
"$MCC" --analyze lib2.sum main.sum runtime.sum > prog2.db
DIFF="$("$MCC" --db-diff prog.db prog2.db)"
if [ -n "$DIFF" ]; then
  echo "neutral edit produced a non-empty db diff: $DIFF" >&2
  exit 1
fi

# --stats prints one line per record under the field lists' keys. The
# pipeline line tags how the database was produced (full/delta/cached)
# and the analyzer line carries the sub-phase breakdown; with a cache
# the second run pairs them with an analyzer hit (the times shown are
# the producing run's).
"$MCC" --stats --config C --cache-dir cache lib.mc main.mc 2> stats1.txt > /dev/null
grep -q '^pipeline: .* analyzer-mode="full" ' stats1.txt \
  && grep -q '^analyzer: .* refsets-ms=' stats1.txt \
  || { echo "no analyzer phase breakdown in --stats" >&2; cat stats1.txt >&2; exit 1; }
"$MCC" --stats --config C --cache-dir cache lib.mc main.mc 2> stats2.txt > /dev/null
grep -q '^pipeline: .* analyzer-mode="cached" ' stats2.txt \
  && grep -q '^analyzer: .* refsets-ms=' stats2.txt \
  || { echo "no tagged analyzer phase breakdown on cached run" >&2; cat stats2.txt >&2; exit 1; }
grep -q ' analyzer-cache-hits=1 analyzer-cache-misses=0 ' stats2.txt \
  || { echo "no analyzer cache hit on second run" >&2; cat stats2.txt >&2; exit 1; }

# --stats is reproducible: two cold builds, each with its own cache
# directory, print the same text once every timing (every "-ms" key)
# is masked.
MASK='s/-ms=[0-9.]+/-ms=X/g'
"$MCC" --stats --config C --cache-dir cold1 lib.mc main.mc 2> cold1.txt > /dev/null
"$MCC" --stats --config C --cache-dir cold2 lib.mc main.mc 2> cold2.txt > /dev/null
sed -E "$MASK" cold1.txt > cold1.masked
sed -E "$MASK" cold2.txt > cold2.masked
cmp -s cold1.masked cold2.masked \
  || { echo "--stats differs between cold builds:" >&2; diff cold1.masked cold2.masked >&2; exit 1; }

# --delta-analyze keeps the output identical and --stats names the
# fallback (a fresh mcc process has no retained state to diff against).
DELTA="$("$MCC" --delta-analyze --config C lib.mc main.mc 2> stats3.txt)"
if [ "$FUSED" != "$DELTA" ]; then
  echo "--delta-analyze changed program output: $DELTA" >&2
  exit 1
fi
"$MCC" --delta-analyze --stats --config C lib.mc main.mc 2> stats3.txt > /dev/null
grep -q '^delta: mode="full" fallback-reason="first analysis" ' stats3.txt \
  || { echo "no delta fallback line in --stats" >&2; cat stats3.txt >&2; exit 1; }

# The per-module points-to pass reports its counters in --stats.
grep -Eq ' points-to-constraints=[1-9][0-9]* points-to-iterations=[1-9]' stats1.txt \
  || { echo "no points-to counters in --stats" >&2; cat stats1.txt >&2; exit 1; }

# Disabling points-to still compiles and runs to the same program
# output (the facts only sharpen allocation, never change semantics).
PTOFF="$("$MCC" --points-to=off --config C lib.mc main.mc)"
if [ "$FUSED" != "$PTOFF" ]; then
  echo "--points-to=off changed program output: $PTOFF" >&2
  exit 1
fi
# The old --no-points-to spelling is gone: an unknown flag (usage, exit 2).
RC=0
"$MCC" --no-points-to --config C lib.mc main.mc > /dev/null 2>&1 || RC=$?
if [ "$RC" != "2" ]; then
  echo "--no-points-to was not rejected as an unknown flag (exit $RC)" >&2
  exit 1
fi

# Mod/ref analysis off is accepted; its verdict records leave the db.
MROFF="$("$MCC" --modref=off --config C lib.mc main.mc)"
if [ "$FUSED" != "$MROFF" ]; then
  echo "--modref=off changed program output: $MROFF" >&2
  exit 1
fi
if "$MCC" --modref=bogus lib.mc main.mc 2> /dev/null; then
  echo "--modref=bogus was not rejected" >&2
  exit 1
fi

# The cross-module lint engine: a clean program is silent with exit 0;
# a seeded one reports machine-readable findings with exit 1.
cat > linty.mc <<'SRC'
int g_dead;
int g_wo;
void orphan() { g_wo = 1; }
int main() { return 0; }
SRC
if LINTOUT="$("$MCC" --lint linty.mc)"; then
  echo "--lint exited 0 on a program with findings" >&2
  exit 1
fi
echo "$LINTOUT" | grep -q "lint: dead-proc: orphan:" \
  || { echo "missing dead-proc finding: $LINTOUT" >&2; exit 1; }
echo "$LINTOUT" | grep -q "lint: dead-global: g_dead:" \
  || { echo "missing dead-global finding: $LINTOUT" >&2; exit 1; }
LINTJSON="$("$MCC" --lint --lint-json linty.mc)" || true
echo "$LINTJSON" | grep -q '"kind":"dead-global","module":"linty.mc","symbol":"g_dead"' \
  || { echo "missing json finding: $LINTJSON" >&2; exit 1; }
CLEANLINT="$("$MCC" --lint lib.mc main.mc)" \
  || { echo "--lint failed on a clean program" >&2; exit 1; }
if [ -n "$CLEANLINT" ]; then
  echo "--lint was not silent on a clean program: $CLEANLINT" >&2
  exit 1
fi

# The post-link invariant checker accepts its own compiler's output.
"$MCC" --verify-ipra --config C lib.mc main.mc 2> verify.txt > /dev/null
grep -q "verify-ipra: .* ok" verify.txt \
  || { echo "verify-ipra did not report ok" >&2; cat verify.txt >&2; exit 1; }

# Numeric flags are strict: a sign, whitespace or trailing garbage is a
# usage error (exit 2) naming the flag, never a silently parsed number.
for BAD in " 5" "+2" "5x"; do
  for FLAG in --fuel --threads; do
    RC=0
    "$MCC" "$FLAG" "$BAD" lib.mc main.mc > /dev/null 2> num.log || RC=$?
    [ "$RC" = 2 ] \
      || { echo "$FLAG '$BAD' exited $RC, expected 2" >&2; exit 1; }
    grep -q -- "$FLAG expects a positive integer" num.log \
      || { echo "no diagnostic for $FLAG '$BAD'" >&2; cat num.log >&2; exit 1; }
  done
done

# [Wall 86] link-time route must match the fused output.
WALL="$("$MCC" --wall lib.mc main.mc)"
if [ "$FUSED" != "$WALL" ]; then
  echo "wall route output differs: $WALL" >&2
  exit 1
fi

echo "mcc CLI workflow ok"
