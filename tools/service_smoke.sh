#!/usr/bin/env bash
# Scheduler-service end-to-end smoke test (DESIGN.md section 14).
#
# Drives a scripted gts_ctl session against a live gts_schedd daemon:
# 50 jobs submitted over 50+ connections (every gts_ctl call is its own
# connection), one cancelled, virtual time advanced, a snapshot taken,
# the daemon killed with SIGKILL, a new daemon restored from the
# snapshot, and the workload drained. The restored daemon's subsequent
# responses must be BYTE-IDENTICAL to an uninterrupted reference run fed
# the exact same request sequence — including the lifecycle fields of
# `metrics`, which cover jobs that ended before the snapshot — and the
# observability artifacts of the graceful runs must pass
# tools/validate_trace.py.
#
#   tools/service_smoke.sh [--build-dir build] [--out-dir svc-smoke-out]
set -uo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build"
OUT_DIR="svc-smoke-out"
JOBS=50
CANCEL_ID=45

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
    -h|--help) sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "unknown option: $1" >&2; exit 1 ;;
  esac
done

SCHEDD="${BUILD_DIR}/tools/gts_schedd"
CTL="${BUILD_DIR}/tools/gts_ctl"
for bin in "$SCHEDD" "$CTL"; do
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build first: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
done

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"
DAEMON_PID=""

cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -9 "$DAEMON_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

die() {
  echo "FAIL: $*" >&2
  exit 1
}

# Starts a daemon and waits for its readiness line. Args are appended to
# the gts_schedd command line; the socket path and log are globals.
start_daemon() {
  local log="$1"; shift
  "$SCHEDD" --socket "$SOCKET" --machines 2 --policy topo-aware-p "$@" \
    >"$log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    if grep -q "gts_schedd ready" "$log" 2>/dev/null; then
      return 0
    fi
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
      cat "$log" >&2
      die "daemon exited before becoming ready"
    fi
    sleep 0.05
  done
  cat "$log" >&2
  die "daemon did not become ready"
}

ctl() {
  "$CTL" --socket "$SOCKET" "$@"
}

job_spec() {
  local id="$1"
  local gpus=$(( 1 + id % 2 ))
  local arrival
  arrival="$(awk "BEGIN { printf \"%.1f\", $id * 2.0 }")"
  printf '{"id":%d,"nn":"AlexNet","batch_size":4,"num_gpus":%d,"arrival_time":%s,"min_utility":0.4,"iterations":300}' \
    "$id" "$gpus" "$arrival"
}

# The shared session prefix: submit, cancel one, advance, snapshot. Jobs
# 2 and 4 finish by t=40, so the snapshot carries finished jobs too.
session_prefix() {
  local snap="$1"
  local i
  for i in $(seq 1 "$JOBS"); do
    ctl submit --job "$(job_spec "$i")" >/dev/null || die "submit $i"
  done
  ctl cancel "$CANCEL_ID" >/dev/null || die "cancel $CANCEL_ID"
  ctl advance --to 40 >/dev/null || die "advance --to 40"
  ctl snapshot --out "$snap" >/dev/null || die "snapshot"
}

# The lifecycle fields of `metrics`, one JSON line. Wall time
# (decision_seconds) and the per-process counters (decisions, events,
# router.routed) are left out: a restored daemon starts those from zero.
lifecycle_metrics() {
  ctl metrics | python3 -c '
import json, sys
metrics = json.load(sys.stdin)
keys = ("terminal", "postponements", "degradations", "slo_violations",
        "mean_jct_slowdown", "mean_waiting_time")
print(json.dumps({key: metrics[key] for key in keys}, sort_keys=True))'
}

# The post-snapshot suffix whose responses must match byte-for-byte:
# more virtual time, every job's status, a full drain, the final listing
# and the lifecycle metrics.
session_suffix() {
  local transcript="$1"
  local i
  {
    ctl advance --to 60 || die "advance --to 60"
    ctl drain || die "drain"
    for i in $(seq 1 "$JOBS"); do
      ctl status "$i" || die "status $i"
    done
    ctl list || die "list"
    lifecycle_metrics || die "metrics"
  } >"$transcript"
}

echo "=== reference run (uninterrupted) ==="
SOCKET="${OUT_DIR}/ref.sock"
start_daemon "${OUT_DIR}/ref_daemon.log" \
  --metrics-out "${OUT_DIR}/METRICS_ref.json" \
  --trace-out "${OUT_DIR}/TRACE_ref.json"
session_prefix "${OUT_DIR}/snap_ref.json"
session_suffix "${OUT_DIR}/transcript_ref.txt"
ctl shutdown >/dev/null || die "reference shutdown"
wait "$DAEMON_PID" || die "reference daemon exit status"
DAEMON_PID=""

echo "=== crash run (SIGKILL after snapshot, then restore) ==="
SOCKET="${OUT_DIR}/crash.sock"
start_daemon "${OUT_DIR}/crash_daemon.log"
session_prefix "${OUT_DIR}/snap_crash.json"
kill -9 "$DAEMON_PID" || die "SIGKILL"
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=""
rm -f "$SOCKET"

# Same prefix, same virtual clock: the two snapshots must already agree.
cmp "${OUT_DIR}/snap_ref.json" "${OUT_DIR}/snap_crash.json" \
  || die "snapshots of identical request prefixes differ"

start_daemon "${OUT_DIR}/restored_daemon.log" \
  --restore "${OUT_DIR}/snap_crash.json" \
  --metrics-out "${OUT_DIR}/METRICS_restored.json" \
  --trace-out "${OUT_DIR}/TRACE_restored.json" \
  --explain-out "${OUT_DIR}/EXPLAIN_restored.jsonl"
session_suffix "${OUT_DIR}/transcript_restored.txt"
ctl shutdown >/dev/null || die "restored shutdown"
wait "$DAEMON_PID" || die "restored daemon exit status"
DAEMON_PID=""

echo "=== comparing post-snapshot decision transcripts ==="
diff -u "${OUT_DIR}/transcript_ref.txt" "${OUT_DIR}/transcript_restored.txt" \
  || die "restored daemon diverged from the uninterrupted reference run"
echo "transcripts byte-identical ($(wc -l <"${OUT_DIR}/transcript_ref.txt") lines)"

echo "=== validating artifacts ==="
python3 tools/validate_trace.py \
  "${OUT_DIR}/snap_ref.json" \
  "${OUT_DIR}/METRICS_ref.json" \
  "${OUT_DIR}/TRACE_ref.json" \
  "${OUT_DIR}/METRICS_restored.json" \
  "${OUT_DIR}/TRACE_restored.json" \
  "${OUT_DIR}/EXPLAIN_restored.jsonl" \
  || die "artifact validation"

echo "service smoke: OK"
