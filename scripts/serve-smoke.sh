#!/usr/bin/env bash
# End-to-end serving smoke for the fedserve daemon (CI: the serve job).
#
# 1. Reference run: boot fedserve on a loopback ephemeral port, drive a
#    fixed-seed 3-job mix (sync/async/gossip) through fedload, require
#    every job to complete with no failed rounds, and write the
#    latency/throughput measurement to artifacts/BENCH_serve.json.
# 2. Interrupted run: submit the same mix to a fresh daemon, wait until
#    the long synchronous job is a few rounds in, kill the daemon with
#    SIGKILL (no shutdown hook runs), restart it over the same state
#    directory and wait for everything to finish.
# 3. Proof: per job, the interrupted run's streamed trace and round
#    history must be byte-identical to the uninterrupted reference.
#
# Everything is fixed-seed and virtual-time, so the only nondeterminism
# is where the kill lands — and the resume protocol's job is exactly to
# make that invisible.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
ART=artifacts
RUN=$ART/serve-smoke
BIN=$RUN/bin
REF=$RUN/ref
INT=$RUN/int

rm -rf "$RUN"
mkdir -p "$BIN" "$REF" "$INT"

echo "== build =="
$GO build -o "$BIN" ./cmd/fedserve ./cmd/fedload

# The fixed-seed 3-job mix. The sync job is deliberately the long pole
# (40 rounds, checkpointed every round) so the SIGKILL below is
# guaranteed to land while it is mid-run. Each job pins "workers": 1 —
# one lane apiece — so the three fit the daemon's -lane-budget 3 and
# co-run at any core count; left unset, a job asks for GOMAXPROCS lanes
# and on a ≥2-CPU host the budget admits them one at a time.
JOBS=$RUN/jobs.json
cat > "$JOBS" <<'EOF'
[
  {"name": "smoke-sync",   "engine": "sync",   "clients": 3, "rounds": 40,
   "samples": 300, "test_samples": 100, "seed": 11, "workers": 1},
  {"name": "smoke-async",  "engine": "async",  "clients": 3, "max_updates": 6,
   "samples": 300, "test_samples": 100, "seed": 12, "workers": 1},
  {"name": "smoke-gossip", "engine": "gossip", "clients": 3, "rounds": 1,
   "samples": 300, "test_samples": 100, "seed": 13, "workers": 1}
]
EOF

# All three jobs must run concurrently: -until-rounds below can only
# observe async/gossip progress at completion, so if they queued behind
# the sync job it would finish before the kill ever landed.
start_daemon() { # dir addr_file log_file -> pid on stdout
  # >log too: a bare & would keep the command-substitution pipe open and
  # $(start_daemon ...) would block until the daemon exits.
  "$BIN/fedserve" -dir "$1" -addr 127.0.0.1:0 -addr-file "$2" \
    -max-running 3 -lane-budget 3 >"$3" 2>&1 &
  local pid=$!
  for _ in $(seq 1 100); do
    [ -f "$2" ] && break
    sleep 0.1
  done
  [ -f "$2" ] || { echo "daemon did not write $2" >&2; cat "$3" >&2; exit 1; }
  echo "$pid"
}

stop_daemon() { # pid — SIGTERM, then poll: not our child, so no `wait`
  kill -TERM "$1" 2>/dev/null || true
  for _ in $(seq 1 100); do
    kill -0 "$1" 2>/dev/null || return 0
    sleep 0.1
  done
  echo "daemon $1 did not exit after SIGTERM" >&2
  exit 1
}

echo "== reference run (uninterrupted) =="
REF_PID=$(start_daemon "$REF" "$RUN/ref.addr" "$RUN/ref-daemon.log")
"$BIN/fedload" -addr-file "$RUN/ref.addr" -jobs "$JOBS" -out "$ART/BENCH_serve.json"
stop_daemon "$REF_PID"

for d in "$REF"/jobs/job-*; do
  if grep -q '"failed":true' "$d/rounds.json"; then
    echo "FAIL: $d has failed rounds" >&2
    exit 1
  fi
done

echo "== interrupted run (SIGKILL mid-run, restart, resume) =="
INT_PID=$(start_daemon "$INT" "$RUN/int.addr" "$RUN/int-daemon-1.log")
# Returns once every job is ≥3 rounds in or already finished — by then
# the 40-round sync job is still mid-flight.
"$BIN/fedload" -addr-file "$RUN/int.addr" -jobs "$JOBS" -until-rounds 3
kill -KILL "$INT_PID"

# The sync job (first submitted => job-1) must actually have been
# interrupted, or the byte-compare below would prove nothing.
if [ ! -f "$INT/jobs/job-1/resume.bin" ]; then
  echo "FAIL: job-1 has no resume snapshot — it finished before the kill; raise its rounds" >&2
  exit 1
fi
grep -q '"state": "running"' "$INT/jobs/job-1/state.json" || {
  echo "FAIL: job-1 was not mid-run at the kill:" >&2
  cat "$INT/jobs/job-1/state.json" >&2
  exit 1
}

rm -f "$RUN/int.addr"
INT_PID=$(start_daemon "$INT" "$RUN/int.addr" "$RUN/int-daemon-2.log")
"$BIN/fedload" -addr-file "$RUN/int.addr" -attach
stop_daemon "$INT_PID"

echo "== resume proof: byte-compare against the reference =="
for n in 1 2 3; do
  for f in trace.jsonl rounds.json; do
    cmp "$REF/jobs/job-$n/$f" "$INT/jobs/job-$n/$f"
    echo "  job-$n/$f identical"
  done
done

echo "serve-smoke: PASS (BENCH_serve.json written to $ART/BENCH_serve.json)"
