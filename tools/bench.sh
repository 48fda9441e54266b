#!/usr/bin/env bash
# Sweep-matrix driver: runs the runner-based bench binaries across the
# experiment matrix and collects the versioned BENCH_*.json documents
# (plus the per-scenario METRICS_*.json observability snapshots).
#
#   tools/bench.sh --seeds 8 --threads "$(nproc)"          # default matrix
#   tools/bench.sh --quick --seeds 2 --threads 2           # CI smoke sizes
#   tools/bench.sh --scenario fig10 --seeds 8 --out-dir out
#
# Determinism contract: every file except its "run" block (wall clock,
# events/sec) and "timing" subtrees is byte-identical for any --threads
# value; see DESIGN.md. A scenario failure does not stop the matrix: the
# remaining scenarios still run and the script exits non-zero listing
# every failed scenario.
#
# Perf gate: after the matrix, every produced BENCH_*.json with a
# committed twin under bench/baselines/ goes through
# tools/bench_compare.py; a >15% mean-latency regression fails the run
# (disable with --no-perf-gate).
set -uo pipefail

cd "$(dirname "$0")/.."

SEEDS=8
THREADS="$(nproc)"
OUT_DIR="bench-out"
BUILD_DIR="build"
SCENARIOS=()
QUICK=0
FULL=0
PERF_GATE=1
# Tractable default for Fig. 11; --full restores the paper's 10k/1k scale.
FIG11_MACHINES=50
FIG11_JOBS=500

usage() {
  sed -n '2,10p' "$0" | sed 's/^# \{0,1\}//'
  cat <<EOF
Options:
  --seeds SPEC       replica count N (seeds 1..N) or explicit list 'a,b,c'
                     (default: ${SEEDS})
  --threads N        worker threads per binary, 0 = all cores
                     (default: nproc = $(nproc))
  --out-dir DIR      where BENCH_*.json land (default: ${OUT_DIR})
  --build-dir DIR    cmake build tree with bench/ binaries (default: ${BUILD_DIR})
  --scenario NAME    run one scenario (repeatable); default: the full matrix
                     (fig10 fig11 ablation_alpha ablation_threshold
                      ablation_noise overhead decision_micro advance_micro
                      service_load scale)
  --quick            CI smoke sizes (tiny clusters / job counts)
  --full             paper-scale Fig. 11 (10000 jobs on 1000 machines)
  --no-perf-gate     skip the bench_compare.py baseline comparison
  -h, --help         this text
EOF
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds) SEEDS="$2"; shift 2 ;;
    --threads) THREADS="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --scenario) SCENARIOS+=("$2"); shift 2 ;;
    --quick) QUICK=1; shift ;;
    --full) FULL=1; shift ;;
    --no-perf-gate) PERF_GATE=0; shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "unknown option: $1" >&2; usage >&2; exit 1 ;;
  esac
done

if [[ ${#SCENARIOS[@]} -eq 0 ]]; then
  SCENARIOS=(fig10 fig11 ablation_alpha ablation_threshold ablation_noise
             overhead decision_micro advance_micro service_load scale)
fi

FIG10_MACHINES=5
FIG10_JOBS=100
OVERHEAD_MACHINES="5,20,50"
OVERHEAD_TASKS="2,4,8"
OVERHEAD_JOBS=40
# Matches the committed baseline's min-of-repeats estimator; a repeats
# mismatch trips bench_compare's config guard on overlapping grids.
OVERHEAD_REPEATS=5
# decision_micro keeps the baseline grid even under --quick: the sweep is
# sub-second, and shrinking it would leave the perf gate with no
# overlapping scenarios against bench/baselines/BENCH_decision_micro.json.
DECISION_MACHINES="5,20,50"
DECISION_TASKS="8"
DECISION_JOBS=200
# advance_micro keeps the baseline grid under --quick for the same
# reason; the event-path sweep is sub-second too.
ADVANCE_MACHINES="5,20,50"
ADVANCE_MULTI="0,25,50"
ADVANCE_JOBS=300
ADVANCE_REPEATS=3
SERVICE_CONNECTIONS=4
SERVICE_JOBS=60
SERVICE_MACHINES=4
# The sharded scale sweep (DESIGN.md section 19). Everything but the
# machine grid stays at the bench_scale defaults so the 500-machine
# scenario config-matches bench/baselines/BENCH_scale.json in the perf
# gate even under --quick.
SCALE_MACHINES="500,1000,2000,5000"
if [[ "$QUICK" -eq 1 ]]; then
  FIG10_MACHINES=3
  FIG10_JOBS=30
  FIG11_MACHINES=8
  FIG11_JOBS=60
  OVERHEAD_MACHINES="2,4,8"
  OVERHEAD_TASKS="2,4,8"
  OVERHEAD_JOBS=15
  OVERHEAD_REPEATS=2
  SERVICE_JOBS=24
  SERVICE_MACHINES=2
  SCALE_MACHINES="500"
elif [[ "$FULL" -eq 1 ]]; then
  FIG11_MACHINES=1000
  FIG11_JOBS=10000
fi

bench_bin() {
  local bin="${BUILD_DIR}/bench/$1"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build first: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    return 1
  fi
  echo "$bin"
}

mkdir -p "$OUT_DIR"
started="$(date +%s)"
FAILED=()

run_scenario() {
  local scenario="$1" bin
  local out="${OUT_DIR}/BENCH_${scenario}.json"
  local metrics="${OUT_DIR}/METRICS_${scenario}.json"
  echo "=== ${scenario} -> ${out} (seeds ${SEEDS}, threads ${THREADS}) ==="
  case "$scenario" in
    fig10)
      bin="$(bench_bin bench_fig10_scenario1)" || return 1
      "$bin" --machines "$FIG10_MACHINES" --jobs "$FIG10_JOBS" \
        --seeds "$SEEDS" --threads "$THREADS" --out "$out" \
        --metrics-out "$metrics"
      ;;
    fig11)
      bin="$(bench_bin bench_fig11_scenario2)" || return 1
      "$bin" --machines "$FIG11_MACHINES" --jobs "$FIG11_JOBS" \
        --seeds "$SEEDS" --threads "$THREADS" --out "$out" \
        --metrics-out "$metrics"
      ;;
    ablation_alpha)
      bin="$(bench_bin bench_ablation_alpha)" || return 1
      "$bin" --seeds "$SEEDS" --threads "$THREADS" --out "$out" \
        --metrics-out "$metrics"
      ;;
    ablation_threshold)
      bin="$(bench_bin bench_ablation_threshold)" || return 1
      "$bin" --seeds "$SEEDS" --threads "$THREADS" --out "$out" \
        --metrics-out "$metrics"
      ;;
    ablation_noise)
      bin="$(bench_bin bench_ablation_noise)" || return 1
      "$bin" --seeds "$SEEDS" --threads "$THREADS" --out "$out" \
        --metrics-out "$metrics"
      ;;
    overhead)
      bin="$(bench_bin bench_overhead)" || return 1
      "$bin" --machines "$OVERHEAD_MACHINES" --tasks "$OVERHEAD_TASKS" \
        --jobs "$OVERHEAD_JOBS" --repeats "$OVERHEAD_REPEATS" \
        --seeds "$SEEDS" --threads "$THREADS" \
        --out "$out" --metrics-out "$metrics"
      ;;
    decision_micro)
      # Replicas stay sequential (--threads 1): parallel replicas contend
      # for cores and inflate the stage timers this scenario exists to
      # gate; the whole sweep is sub-second anyway.
      bin="$(bench_bin bench_decision_micro)" || return 1
      "$bin" --machines "$DECISION_MACHINES" --tasks "$DECISION_TASKS" \
        --jobs "$DECISION_JOBS" --seeds "$SEEDS" --threads 1 \
        --out "$out" --metrics-out "$metrics"
      ;;
    advance_micro)
      # Event-path twin of decision_micro: ClusterState place/remove/query
      # stage timers on the scoped event path. Sequential replicas
      # (--threads 1) for the same timer-hygiene reason.
      bin="$(bench_bin bench_advance_micro)" || return 1
      "$bin" --machines "$ADVANCE_MACHINES" --multi "$ADVANCE_MULTI" \
        --jobs "$ADVANCE_JOBS" --repeats "$ADVANCE_REPEATS" \
        --seeds "$SEEDS" --threads 1 \
        --out "$out" --metrics-out "$metrics"
      ;;
    service_load)
      # Live socket daemon + concurrent clients; replicas stay sequential
      # (--threads 1) because each one spawns its own server and client
      # threads. This scenario also exercises the live-telemetry layer:
      # windowed aggregates + flight recorder on, with the Prometheus
      # exposition and the flight dump written as validated artifacts.
      bin="$(bench_bin bench_service_load)" || return 1
      "$bin" --connections "$SERVICE_CONNECTIONS" --jobs "$SERVICE_JOBS" \
        --machines "$SERVICE_MACHINES" --seeds "$SEEDS" --threads 1 \
        --out "$out" --metrics-out "$metrics" --obs-windows \
        --prom-out "${OUT_DIR}/PROM_service_load.prom" \
        --flight-out "${OUT_DIR}/FLIGHT_service_load.jsonl"
      ;;
    scale)
      # Sharded datacenter sweep; replicas stay sequential (--threads 1)
      # so the flat-latency claim in the timing subtrees is not polluted
      # by replica-level core contention. Each replica advances its cells
      # on its own thread.
      bin="$(bench_bin bench_scale)" || return 1
      "$bin" --machines "$SCALE_MACHINES" --seeds "$SEEDS" --threads 1 \
        --out "$out" --metrics-out "$metrics"
      ;;
    *)
      echo "unknown scenario: $scenario" >&2
      return 1
      ;;
  esac
}

for scenario in "${SCENARIOS[@]}"; do
  if ! run_scenario "$scenario"; then
    echo "FAILED: ${scenario}" >&2
    FAILED+=("$scenario")
  fi
done

# Telemetry-artifact validation: the service_load scenario emits a
# Prometheus exposition + flight-recorder dump; both must parse.
for artifact in "${OUT_DIR}"/PROM_*.prom "${OUT_DIR}"/FLIGHT_*.jsonl; do
  [[ -f "$artifact" ]] || continue
  if ! python3 tools/validate_trace.py "$artifact"; then
    echo "FAILED: validate:$(basename "$artifact")" >&2
    FAILED+=("validate:$(basename "$artifact")")
  fi
done

if [[ "$PERF_GATE" -eq 1 ]]; then
  for scenario in "${SCENARIOS[@]}"; do
    baseline="bench/baselines/BENCH_${scenario}.json"
    produced="${OUT_DIR}/BENCH_${scenario}.json"
    [[ -f "$baseline" && -f "$produced" ]] || continue
    echo "=== perf-gate ${scenario}: ${baseline} vs ${produced} ==="
    if ! python3 tools/bench_compare.py --min-value 150 "$baseline" "$produced"; then
      echo "FAILED: perf-gate:${scenario}" >&2
      FAILED+=("perf-gate:${scenario}")
    fi
  done
fi

echo "done in $(( $(date +%s) - started ))s; documents in ${OUT_DIR}/:"
ls -l "$OUT_DIR"/BENCH_*.json "$OUT_DIR"/METRICS_*.json 2>/dev/null || true

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "failed scenarios: ${FAILED[*]}" >&2
  exit 1
fi
