#!/usr/bin/env bash
# End-to-end CLI test of mcc's build-service modes: a real daemon on a
# unix socket, real client invocations, output parity with one-shot
# builds, and stats/ping/shutdown control requests.
set -euo pipefail
MCC="$1"
DIR="$(mktemp -d)"
SOCK="$DIR/ipra.sock"
trap 'rm -rf "$DIR"
      [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null
      [ -n "${TCP_PID:-}" ] && kill "$TCP_PID" 2>/dev/null
      true' EXIT
cd "$DIR"

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

"$MCC" --serve "$SOCK" -j 2 2> serve.log &
SERVE_PID=$!
for _ in $(seq 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon never bound $SOCK" >&2; cat serve.log >&2; exit 1; }

"$MCC" --client "$SOCK" --remote-ping 2>/dev/null \
  || { echo "ping failed" >&2; exit 1; }

# A remote build runs the program with the same output as a one-shot
# local build.
LOCAL="$("$MCC" --config C lib.mc main.mc)"
REMOTE="$("$MCC" --client "$SOCK" --program cli-demo lib.mc main.mc)"
if [ "$LOCAL" != "$REMOTE" ]; then
  echo "remote build output differs:" >&2
  echo "local:  $LOCAL" >&2
  echo "remote: $REMOTE" >&2
  exit 1
fi

# A second identical build is served from the daemon's cache.
"$MCC" --client "$SOCK" --program cli-demo --stats lib.mc main.mc \
  2> stats2.txt > /dev/null
grep -q "served from cache: yes" stats2.txt \
  || { echo "second build not served from cache" >&2; cat stats2.txt >&2; exit 1; }

# A summary-visible edit takes the retained delta path (visible in the
# service stats), and the output still matches a one-shot build.
cat > main.mc <<'SRC'
int counter;
int bump(int x);
int main() {
  int r = 0;
  for (int i = 0; i < 20; i = i + 1) {
    r = r + bump(i);
    if (r > 100000) r = r + bump(1);
  }
  prints("r=");
  print(r);
  print(counter);
  return 0;
}
SRC
LOCAL2="$("$MCC" --config C --stats lib.mc main.mc 2> local2.txt)"
REMOTE2="$("$MCC" --client "$SOCK" --program cli-demo --stats lib.mc main.mc \
  2> remote2.txt)"
[ "$LOCAL2" = "$REMOTE2" ] \
  || { echo "edited remote build output differs" >&2; exit 1; }

# The client's --stats report shows what the reply carries: the delta
# analyzer's damage counters, the points-to counters, and the whole
# analyzer record (web, cluster, points-to, GPG and mod/ref counters),
# equal to the in-process report once every timing (every "-ms" key)
# is masked.
grep -Eq '^delta: .* changed-procs=[1-9]' remote2.txt \
  || { echo "remote --stats lost the delta counters" >&2; cat remote2.txt >&2; exit 1; }
grep -Eq '^pipeline: .* points-to-constraints=[1-9]' remote2.txt \
  || { echo "remote --stats lost the points-to counters" >&2; cat remote2.txt >&2; exit 1; }
MASK='s/-ms=[0-9.]+/-ms=X/g'
LOCAL_ANALYZER="$(grep '^analyzer: ' local2.txt | sed -E "$MASK")"
REMOTE_ANALYZER="$(grep '^analyzer: ' remote2.txt | sed -E "$MASK")"
[ -n "$LOCAL_ANALYZER" ] && [ "$LOCAL_ANALYZER" = "$REMOTE_ANALYZER" ] \
  || { echo "analyzer records differ: local '$LOCAL_ANALYZER' remote '$REMOTE_ANALYZER'" >&2; exit 1; }

STATS="$("$MCC" --client "$SOCK" --remote-stats)"
echo "$STATS" | grep -q '"completed":3' \
  || { echo "expected 3 completed builds in stats: $STATS" >&2; exit 1; }
DELTA=$(echo "$STATS" | sed 's/.*"delta-hits":\([0-9]*\).*/\1/')
[ "$DELTA" -ge 1 ] \
  || { echo "retained delta state never fired: $STATS" >&2; exit 1; }

# One request path: each phase mode is one request to the daemon, and
# prints the same bytes as the local run.
"$MCC" --emit-runtime > runtime.mc
for M in lib main runtime; do
  "$MCC" --phase1 "$M.mc" > "$M.sum"
  "$MCC" --client "$SOCK" --phase1 "$M.mc" > "$M.remote.sum" \
    || { echo "remote --phase1 $M.mc failed" >&2; exit 1; }
  cmp -s "$M.sum" "$M.remote.sum" \
    || { echo "remote --phase1 $M.mc differs from local" >&2; exit 1; }
done
"$MCC" --analyze lib.sum main.sum runtime.sum > prog.db
"$MCC" --client "$SOCK" --analyze lib.sum main.sum runtime.sum \
  > prog.remote.db || { echo "remote --analyze failed" >&2; exit 1; }
cmp -s prog.db prog.remote.db \
  || { echo "remote --analyze differs from local" >&2; exit 1; }
"$MCC" --phase2 --db prog.db lib.mc > lib.o
"$MCC" --client "$SOCK" --phase2 --db prog.db lib.mc > lib.remote.o \
  || { echo "remote --phase2 failed" >&2; exit 1; }
cmp -s lib.o lib.remote.o \
  || { echo "remote --phase2 differs from local" >&2; exit 1; }

# A remote build prints the same database dump and disassembly as a
# local one, and runs the same IPRA invariant check.
"$MCC" --config C --verify-ipra --disasm --dump-db lib.mc main.mc \
  > full.local 2> /dev/null
"$MCC" --client "$SOCK" --verify-ipra --disasm --dump-db lib.mc main.mc \
  > full.remote 2> full.remote.err
cmp -s full.local full.remote \
  || { echo "remote --verify-ipra --disasm --dump-db stdout differs" >&2; exit 1; }
grep -q "verify-ipra: .* ok" full.remote.err \
  || { echo "remote build skipped --verify-ipra" >&2; cat full.remote.err >&2; exit 1; }

# --stats prints the same simulator counters through both doors.
COUNTERS='^(cycles|instructions|memory refs|singleton refs|calls): '
LOCAL_RUN="$(grep -E "$COUNTERS" local2.txt)"
REMOTE_RUN="$(grep -E "$COUNTERS" remote2.txt)"
echo "$REMOTE_RUN" | grep -q '^instructions: ' \
  && echo "$REMOTE_RUN" | grep -q '^calls: ' \
  || { echo "remote --stats lacks instructions/calls" >&2; cat remote2.txt >&2; exit 1; }
[ "$LOCAL_RUN" = "$REMOTE_RUN" ] \
  || { echo "simulator counters differ: local '$LOCAL_RUN' remote '$REMOTE_RUN'" >&2; exit 1; }

# The daemon cannot answer --link (executables never cross the wire) or
# --wall (no request runs it): both are usage errors naming the flag.
for FLAG in --link --wall; do
  RC=0
  "$MCC" --client "$SOCK" "$FLAG" lib.mc main.mc > /dev/null 2> refuse.log \
    || RC=$?
  [ "$RC" = 2 ] \
    || { echo "--client $FLAG exited $RC, expected 2" >&2; exit 1; }
  grep -q -- "$FLAG" refuse.log \
    || { echo "no diagnostic naming $FLAG" >&2; cat refuse.log >&2; exit 1; }
done

# Graceful shutdown over the wire; the daemon process exits cleanly.
"$MCC" --client "$SOCK" --remote-shutdown 2>/dev/null
wait "$SERVE_PID"
SERVE_PID=""

# Bogus numeric flags die up front with a diagnostic (exit 2), never a
# silently misconfigured daemon.
for BAD in "--threads 0" "--threads -3" "--threads nope" \
           "--queue-depth 0" "--max-sessions garbage" \
           "--io-timeout -1" "--cache-mem-budget x"; do
  if "$MCC" --serve "$DIR/never.sock" $BAD 2> bad.log; then
    echo "expected rejection of: $BAD" >&2
    exit 1
  fi
  grep -q "positive integer" bad.log \
    || { echo "no diagnostic for: $BAD" >&2; cat bad.log >&2; exit 1; }
done
[ -S "$DIR/never.sock" ] && { echo "daemon bound despite bad flag" >&2; exit 1; }

# The same daemon protocol over TCP loopback (--listen / --connect).
TCP_PORT=""
for _ in 1 2 3 4 5; do
  CAND=$(( 20000 + RANDOM % 20000 ))
  : > tcp_serve.log
  "$MCC" --serve --listen "127.0.0.1:$CAND" -j 2 2> tcp_serve.log &
  TCP_PID=$!
  for _ in $(seq 50); do
    grep -q "serving on" tcp_serve.log && break
    kill -0 "$TCP_PID" 2>/dev/null || break
    sleep 0.1
  done
  if grep -q "serving on" tcp_serve.log; then
    TCP_PORT="$CAND"
    break
  fi
  wait "$TCP_PID" 2>/dev/null || true
  TCP_PID=""
done
[ -n "$TCP_PORT" ] || { echo "could not bind a TCP port" >&2; exit 1; }

"$MCC" --connect "127.0.0.1:$TCP_PORT" --remote-ping 2>/dev/null \
  || { echo "TCP ping failed" >&2; exit 1; }
TCP_OUT="$("$MCC" --connect "127.0.0.1:$TCP_PORT" --program tcp-demo lib.mc main.mc)"
[ "$LOCAL2" = "$TCP_OUT" ] \
  || { echo "TCP build output differs from one-shot build" >&2; exit 1; }
"$MCC" --connect "127.0.0.1:$TCP_PORT" --remote-shutdown 2>/dev/null
wait "$TCP_PID"
TCP_PID=""

echo "mcc service CLI workflow ok"
