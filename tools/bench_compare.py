#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json timing aggregates.

Compares the wall-clock `timing_aggregates` block of a current BENCH
document against a committed baseline and fails (exit 1) when any mean
latency regresses by more than the threshold:

    tools/bench_compare.py bench/baselines/BENCH_decision_micro.json \
        bench-out/BENCH_decision_micro.json --threshold 0.15

Contract (DESIGN.md section 15):
  * Only `timing_aggregates` is compared — the deterministic `aggregates`
    section is covered by the equivalence tests, not by this gate.
  * Scenarios and metric paths are intersected: a baseline recorded on a
    different sweep grid gates only the overlapping cells, and the gate
    says so. No overlap is a warning, not a failure (quick-mode CI grids
    legitimately differ from the committed full-size baselines).
  * Only metrics ending in `--suffix` (default ".mean") are gated; p95/max
    are too noisy for a hard gate at smoke seed counts.
  * A regression only fails when the relative delta exceeds
    `--threshold` AND the absolute delta exceeds `--min-value` (default
    25.0, microseconds for the stock documents): sub-noise-floor stage
    timers regress by 10x from scheduling jitter alone without anything
    being wrong, and a ratio over a tiny denominator means nothing. A
    real hot-path regression clears both bars in the large cells.
  * Run configuration must match: every `metadata` key present in BOTH
    documents must carry the same value (batch_max, pipeline,
    connections, ...). Comparing a batched run against an
    unbatched baseline says nothing about regressions, so a mismatch is
    a hard error unless --allow-config-mismatch is given. Keys present
    in only one document are ignored (older baselines predate newer
    knobs), and the guard only fires when the documents share scenarios
    (disjoint quick-mode grids gate nothing anyway).

Improvements are reported but never fail the gate. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise SystemExit(f"bench_compare: cannot read {path}: {err}")
    return doc


def timing_of(doc: dict, path: str) -> dict:
    timing = doc.get("timing_aggregates")
    if not isinstance(timing, dict):
        raise SystemExit(
            f"bench_compare: {path} has no timing_aggregates block "
            "(was it written with timing stripped?)"
        )
    return timing


def check_config(base_doc: dict, cur_doc: dict, allow_mismatch: bool) -> None:
    """Refuse to gate documents produced under different configurations.

    Every metadata key both documents carry must agree; a differing
    batch_max / pipeline / connections means the timing deltas
    measure the config change, not a code regression.
    """
    base_meta = base_doc.get("metadata")
    cur_meta = cur_doc.get("metadata")
    if not isinstance(base_meta, dict) or not isinstance(cur_meta, dict):
        return
    mismatched = [
        key
        for key in sorted(set(base_meta) & set(cur_meta))
        if base_meta[key] != cur_meta[key]
    ]
    if not mismatched:
        return
    details = "; ".join(
        f"{key}: baseline={base_meta[key]!r} current={cur_meta[key]!r}"
        for key in mismatched
    )
    if allow_mismatch:
        print(
            "bench_compare: WARNING comparing across differing run "
            f"configurations ({details}) — --allow-config-mismatch given"
        )
        return
    raise SystemExit(
        "bench_compare: refusing to compare across differing run "
        f"configurations ({details}); regenerate the baseline with the "
        "same flags or pass --allow-config-mismatch"
    )


def metric_mean(entry) -> float | None:
    """A timing_aggregates leaf is {mean, p50, ...}; gate on its mean."""
    if isinstance(entry, dict) and isinstance(entry.get("mean"), (int, float)):
        return float(entry["mean"])
    if isinstance(entry, (int, float)):
        return float(entry)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fail when BENCH timing means regress past a threshold"
    )
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="max allowed relative mean-latency regression (default 0.15)",
    )
    parser.add_argument(
        "--suffix",
        default=".mean",
        help="gate only metric paths with this suffix (default .mean)",
    )
    parser.add_argument(
        "--min-value",
        type=float,
        default=25.0,
        help="absolute delta a regression must also exceed (noise floor)",
    )
    parser.add_argument(
        "--allow-config-mismatch",
        action="store_true",
        help="downgrade differing run-configuration metadata to a warning",
    )
    args = parser.parse_args()

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    base = timing_of(base_doc, args.baseline)
    cur = timing_of(cur_doc, args.current)

    scenarios = sorted(set(base) & set(cur))
    skipped_scenarios = sorted(set(base) ^ set(cur))
    if not scenarios:
        print(
            "bench_compare: WARNING no overlapping scenarios between "
            f"{args.baseline} and {args.current}; nothing gated"
        )
        return 0
    # Only enforce the config guard when something will actually be
    # gated; disjoint quick-mode grids never reach a comparison.
    check_config(base_doc, cur_doc, args.allow_config_mismatch)
    if skipped_scenarios:
        print(
            "bench_compare: note: scenarios only in one document, not "
            f"gated: {', '.join(skipped_scenarios)}"
        )

    rows = []
    regressions = []
    compared = 0
    for scenario in scenarios:
        base_metrics = base[scenario]
        cur_metrics = cur[scenario]
        if not isinstance(base_metrics, dict) or not isinstance(
            cur_metrics, dict
        ):
            continue
        for path in sorted(set(base_metrics) & set(cur_metrics)):
            if not path.endswith(args.suffix):
                continue
            base_mean = metric_mean(base_metrics[path])
            cur_mean = metric_mean(cur_metrics[path])
            if base_mean is None or cur_mean is None:
                continue
            compared += 1
            delta = (
                (cur_mean - base_mean) / base_mean if base_mean > 0 else 0.0
            )
            status = "ok"
            if delta > args.threshold:
                if cur_mean - base_mean > args.min_value:
                    status = "REGRESSION"
                    regressions.append(
                        (scenario, path, base_mean, cur_mean, delta)
                    )
                else:
                    status = "noise"
            elif delta < -args.threshold:
                status = "improved"
            rows.append((scenario, path, base_mean, cur_mean, delta, status))

    if compared == 0:
        print(
            "bench_compare: WARNING overlapping scenarios carry no "
            f"comparable '*{args.suffix}' metrics; nothing gated"
        )
        return 0

    header = ("scenario", "metric", "baseline", "current", "delta", "status")
    widths = [len(h) for h in header]
    rendered = []
    for scenario, path, base_mean, cur_mean, delta, status in rows:
        cells = (
            scenario,
            path,
            f"{base_mean:.1f}",
            f"{cur_mean:.1f}",
            f"{delta * 100.0:+.1f}%",
            status,
        )
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        rendered.append(cells)
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for cells in rendered:
        print(fmt.format(*cells))

    print(
        f"bench_compare: {compared} metric(s) gated across "
        f"{len(scenarios)} scenario(s), threshold "
        f"{args.threshold * 100.0:.0f}%"
    )
    if regressions:
        for scenario, path, base_mean, cur_mean, delta in regressions:
            print(
                f"bench_compare: FAIL {scenario} {path}: "
                f"{base_mean:.1f} -> {cur_mean:.1f} "
                f"({delta * 100.0:+.1f}% > {args.threshold * 100.0:.0f}%)",
                file=sys.stderr,
            )
        return 1
    print("bench_compare: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
