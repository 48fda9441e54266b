#!/usr/bin/env python3
"""Validate observability artifacts (stdlib only).

Checks the document kinds src/obs/, src/svc/, and src/runner/ emit:

  * Chrome trace_event JSON (--trace-out): loadable by Perfetto / chrome://
    tracing — a traceEvents array whose events carry name/ph/pid/tid, ts on
    non-metadata events, dur on complete ('X') events, and balanced B/E
    nesting per thread;
  * metrics registry snapshots (--metrics-out): schema_version 1 documents
    with counters/gauges/histograms sections, each histogram having
    len(counts) == len(bounds) + 1 and count == sum(counts);
  * decision-explain JSONL (--explain-out): one JSON object per line with
    the per-decision fields, candidate utility-term breakdowns, and
    strictly increasing sequence numbers;
  * scheduler-service snapshots (gts_schedd --snapshot / the `snapshot`
    verb): schema_version 2, kind "svc_snapshot", running/waiting/pending
    job sections carrying manifests, consistent GPU assignments, and
    history records with typed fields, a known state, and ids unique and
    disjoint from the live sections;
  * BENCH sweep documents (bench/* --out): schema_version 1 with
    scenario x seed replicas and per-scenario aggregate stat blocks;
  * Prometheus text exposition (the `metrics_prom` verb / --prom-port
    scrape): 0.0.4 grammar — every sample family declared by a # TYPE
    line, histogram buckets cumulative and monotone with the +Inf bucket
    equal to the _count sample;
  * flight-recorder dumps (the `dump` verb / crash handler): JSONL with
    kind "flight", known event names, and strictly increasing sequence
    numbers.

Usage:
  tools/validate_trace.py trace.json [more.json ...]
  tools/validate_trace.py --kind metrics metrics.json
  tools/validate_trace.py --kind explain decisions.jsonl
  tools/validate_trace.py --kind snapshot snap.json
  tools/validate_trace.py --kind bench bench.json
  tools/validate_trace.py --kind prom scrape.prom
  tools/validate_trace.py --kind flight flight.jsonl
  tools/validate_trace.py --kind auto out/*.json   # sniff per file (default)
"""

import argparse
import json
import math
import re
import sys


def fail(path, message):
    raise ValueError(f"{path}: {message}")


def validate_trace(path, doc):
    if not isinstance(doc, dict):
        fail(path, "trace document must be an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "missing or empty traceEvents array")
    open_spans = {}  # tid -> stack of names
    counts = {"X": 0, "B": 0, "E": 0, "i": 0, "C": 0, "M": 0}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            fail(path, f"{where}: not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                fail(path, f"{where}: missing '{key}'")
        phase = event["ph"]
        if not isinstance(phase, str) or len(phase) != 1:
            fail(path, f"{where}: bad phase {phase!r}")
        counts[phase] = counts.get(phase, 0) + 1
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            fail(path, f"{where}: non-metadata event missing numeric ts")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            fail(path, f"{where}: complete event missing numeric dur")
        stack = open_spans.setdefault(event["tid"], [])
        if phase == "B":
            stack.append(event["name"])
        elif phase == "E":
            if not stack:
                fail(path, f"{where}: 'E' without matching 'B' on tid "
                           f"{event['tid']}")
            stack.pop()
    for tid, stack in open_spans.items():
        if stack:
            fail(path, f"unclosed 'B' events on tid {tid}: {stack}")
    return (f"trace ok: {len(events)} events "
            f"(X={counts['X']} B/E={counts['B']}/{counts['E']} "
            f"i={counts['i']} C={counts['C']} M={counts['M']})")


def validate_histogram(path, name, hist):
    where = f"histograms['{name}']"
    for key in ("count", "sum", "mean", "min", "max", "p50", "p95",
                "bounds", "counts"):
        if key not in hist:
            fail(path, f"{where}: missing '{key}'")
    bounds, counts = hist["bounds"], hist["counts"]
    if len(counts) != len(bounds) + 1:
        fail(path, f"{where}: len(counts) must be len(bounds)+1")
    if sorted(bounds) != bounds:
        fail(path, f"{where}: bounds not sorted")
    if sum(counts) != hist["count"]:
        fail(path, f"{where}: count != sum(counts)")
    if any(c < 0 for c in counts):
        fail(path, f"{where}: negative bucket count")


def validate_metrics(path, doc):
    if not isinstance(doc, dict):
        fail(path, "metrics document must be an object")
    if doc.get("schema_version") != 1:
        fail(path, f"bad schema_version {doc.get('schema_version')!r}")
    if doc.get("kind") != "metrics":
        fail(path, f"bad kind {doc.get('kind')!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(path, "missing metrics object")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(path, f"missing metrics.{section} object")
    for name, value in metrics["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            fail(path, f"counters['{name}']: bad value {value!r}")
    for name, value in metrics["gauges"].items():
        if not isinstance(value, (int, float)):
            fail(path, f"gauges['{name}']: bad value {value!r}")
    for name, hist in metrics["histograms"].items():
        validate_histogram(path, name, hist)
    return (f"metrics ok: {len(metrics['counters'])} counters, "
            f"{len(metrics['gauges'])} gauges, "
            f"{len(metrics['histograms'])} histograms")


def validate_explain(path, lines):
    last_sequence = -1
    records = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            fail(path, f"line {number}: {error}")
        where = f"line {number}"
        for key in ("sequence", "sim_time", "policy", "job_id", "num_gpus",
                    "min_utility", "outcome", "gpus", "chosen", "satisfied",
                    "decision_us", "candidates"):
            if key not in record:
                fail(path, f"{where}: missing '{key}'")
        if record["sequence"] <= last_sequence:
            fail(path, f"{where}: sequence not increasing")
        last_sequence = record["sequence"]
        if record["outcome"] not in ("placed", "postponed", "declined"):
            fail(path, f"{where}: bad outcome {record['outcome']!r}")
        for slot, candidate in enumerate([*record["candidates"],
                                          {"gpus": record["gpus"],
                                           "source": "chosen",
                                           "terms": record["chosen"]}]):
            cwhere = f"{where}: candidates[{slot}]"
            for key in ("gpus", "terms", "source"):
                if key not in candidate:
                    fail(path, f"{cwhere}: missing '{key}'")
            terms = candidate["terms"]
            if "utility" not in terms or "has_breakdown" not in terms:
                fail(path, f"{cwhere}: terms missing utility/has_breakdown")
            if terms["has_breakdown"]:
                # The Eq. 3/4/5 decomposition: communication, interference
                # and fragmentation terms.
                for key in ("comm_cost", "comm_utility", "interference",
                            "frag_omega", "frag_utility", "comm_weight"):
                    if key not in terms:
                        fail(path, f"{cwhere}: breakdown missing '{key}'")
        if record["outcome"] == "placed" and not record["gpus"]:
            fail(path, f"{where}: placed decision with empty gpus")
        records += 1
    if records == 0:
        fail(path, "no explain records")
    return f"explain ok: {records} records"


HISTORY_INT_FIELDS = ("id", "num_gpus", "postponements", "degradation_events")
HISTORY_NUMBER_FIELDS = ("min_utility", "arrival", "start", "end",
                         "placement_utility", "best_solo_time")
HISTORY_STATES = ("finished", "cancelled", "rejected")


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def validate_history_entry(path, where, entry):
    if not isinstance(entry, dict):
        fail(path, f"{where}: history entry must be an object")
    for key in HISTORY_INT_FIELDS:
        if not is_int(entry.get(key)):
            fail(path, f"{where}: {key} {entry.get(key)!r} is not an int")
    for key in HISTORY_NUMBER_FIELDS:
        if not is_number(entry.get(key)):
            fail(path, f"{where}: {key} {entry.get(key)!r} is not a finite "
                       "number")
    if not isinstance(entry.get("p2p"), bool):
        fail(path, f"{where}: p2p {entry.get('p2p')!r} is not a bool")
    for key in ("nn", "batch"):
        if not isinstance(entry.get(key), str):
            fail(path, f"{where}: {key} {entry.get(key)!r} is not a string")
    state = entry.get("state")
    if state not in HISTORY_STATES:
        fail(path, f"{where}: bad state {state!r}")
    gpus = entry.get("gpus")
    if not isinstance(gpus, list) or not all(is_int(g) and g >= 0
                                             for g in gpus):
        fail(path, f"{where}: bad gpus {gpus!r}")
    if entry["arrival"] < 0:
        fail(path, f"{where}: negative arrival {entry['arrival']!r}")
    for key in ("start", "end"):
        if entry[key] < 0 and entry[key] != -1:
            fail(path, f"{where}: negative {key} {entry[key]!r}")
    if (state == "rejected") != (entry["end"] == -1):
        fail(path, f"{where}: {state} job with end {entry['end']!r}")


def validate_snapshot(path, doc):
    if not isinstance(doc, dict):
        fail(path, "snapshot document must be an object")
    if doc.get("schema_version") != 2:
        fail(path, f"bad schema_version {doc.get('schema_version')!r}")
    if doc.get("kind") != "svc_snapshot":
        fail(path, f"bad kind {doc.get('kind')!r}")
    now = doc.get("now")
    if not isinstance(now, (int, float)) or now < 0:
        fail(path, f"bad now {now!r}")
    if not isinstance(doc.get("capacity_version"), (int, float)):
        fail(path, "missing numeric capacity_version")
    if not isinstance(doc.get("draining"), bool):
        fail(path, "missing boolean draining")
    if not isinstance(doc.get("next_auto_id"), (int, float)):
        fail(path, "missing numeric next_auto_id")
    for section in ("running", "waiting", "pending", "history"):
        if not isinstance(doc.get(section), list):
            fail(path, f"missing {section} array")
    allocated = set()
    for index, entry in enumerate(doc["running"]):
        where = f"running[{index}]"
        if not isinstance(entry.get("manifest"), dict):
            fail(path, f"{where}: missing manifest object")
        gpus = entry.get("gpus")
        if (not isinstance(gpus, list) or not gpus or
                not all(isinstance(g, int) and g >= 0 for g in gpus)):
            fail(path, f"{where}: bad gpus {gpus!r}")
        overlap = allocated.intersection(gpus)
        if overlap:
            fail(path, f"{where}: GPUs double-allocated: {sorted(overlap)}")
        allocated.update(gpus)
        start = entry.get("start_time")
        if not isinstance(start, (int, float)) or start > now + 1e-9:
            fail(path, f"{where}: start_time {start!r} after now {now}")
        progress = entry.get("progress_iterations")
        if not isinstance(progress, (int, float)) or progress < 0:
            fail(path, f"{where}: bad progress_iterations {progress!r}")
    for section in ("waiting", "pending"):
        for index, entry in enumerate(doc[section]):
            if not isinstance(entry.get("manifest"), dict):
                fail(path, f"{section}[{index}]: missing manifest object")
    live = set()
    for section in ("running", "waiting", "pending"):
        live.update(entry["manifest"].get("id") for entry in doc[section])
    seen = set()
    for index, entry in enumerate(doc["history"]):
        where = f"history[{index}]"
        validate_history_entry(path, where, entry)
        if entry["id"] in seen:
            fail(path, f"{where}: id {entry['id']} repeated in history")
        if entry["id"] in live:
            fail(path, f"{where}: id {entry['id']} is also a live job")
        seen.add(entry["id"])
    return (f"snapshot ok: now={now} running={len(doc['running'])} "
            f"waiting={len(doc['waiting'])} pending={len(doc['pending'])} "
            f"history={len(doc['history'])}")


_STAT_KEYS = ("count", "mean", "stddev", "min", "max", "p50", "p95")


def _require_number(path, where, value, minimum=None):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(path, f"{where}: expected number, got {value!r}")
    if minimum is not None and value < minimum:
        fail(path, f"{where}: expected >= {minimum}, got {value!r}")


_OPTIONAL_HISTOGRAMS = ("advance_latency_us", "placed_latency_us",
                        "declined_latency_us")


def _validate_capacity_skips(path, where, run):
    """Queue offers the driver's capacity gate declined without calling
    the scheduler: deterministic, so outside `timing`, and a non-negative
    integer. Optional, because documents that predate the gate lack it."""
    if "capacity_skips" not in run:
        return
    value = run["capacity_skips"]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        fail(path, f"{where}.capacity_skips: expected non-negative integer, "
                   f"got {value!r}")


def _validate_scale_payload(path, where, payload):
    """BENCH_scale replicas: router counters, per-shard rows and the
    router timing subtree next to the per-decision histogram."""
    sharded = payload["sharded"]
    if not isinstance(sharded, dict):
        fail(path, f"{where}: 'sharded' must be an object")
    _validate_capacity_skips(path, f"{where}: sharded", sharded)
    router = sharded.get("router")
    if not isinstance(router, dict):
        fail(path, f"{where}: sharded.router missing")
    for key in ("routed", "filtered", "exhausted"):
        _require_number(path, f"{where}: sharded.router.{key}",
                        router.get(key), minimum=0)
    per_shard = sharded.get("per_shard")
    if not isinstance(per_shard, list) or not per_shard:
        fail(path, f"{where}: sharded.per_shard missing or empty")
    if isinstance(payload.get("shards"), (int, float)):
        if len(per_shard) != int(payload["shards"]):
            fail(path, f"{where}: per_shard has {len(per_shard)} rows for "
                       f"{payload['shards']} shards")
    for index, row in enumerate(per_shard):
        rwhere = f"{where}: sharded.per_shard[{index}]"
        if not isinstance(row, dict):
            fail(path, f"{rwhere}: expected object")
        if row.get("shard") != index:
            fail(path, f"{rwhere}: shard id {row.get('shard')!r} != {index}")
        _require_number(path, f"{rwhere}.machines", row.get("machines"),
                        minimum=1)
        for key in ("gpus", "decisions", "placements", "routed"):
            _require_number(path, f"{rwhere}.{key}", row.get(key), minimum=0)
    cell_routed = sum(row["routed"] for row in per_shard)
    if cell_routed != router["routed"]:
        fail(path, f"{where}: per-shard routed sum {cell_routed} != "
                   f"router.routed {router['routed']}")
    timing = sharded.get("timing")
    if not isinstance(timing, dict):
        fail(path, f"{where}: sharded.timing missing")
    for name in ("decision_latency_us", "route_latency_us"):
        if name not in timing:
            fail(path, f"{where}: sharded.timing.{name} missing")
        validate_histogram(path, f"{where}: sharded.timing.{name}",
                           timing[name])
    # Per-advance split (event-path overhaul) and the decision latency split
    # by outcome: optional so baselines that predate them still validate,
    # but when present each must be a histogram.
    for name in _OPTIONAL_HISTOGRAMS:
        if name in timing:
            validate_histogram(path, f"{where}: sharded.timing.{name}",
                               timing[name])
    # The unsharded oracle only runs up to --oracle-max machines; when it
    # did, the placement-quality delta must ride along.
    if "unsharded" in payload:
        oracle = payload["unsharded"]
        if not isinstance(oracle, dict):
            fail(path, f"{where}: 'unsharded' must be an object")
        _validate_capacity_skips(path, f"{where}: unsharded", oracle)
        oracle_timing = oracle.get("timing")
        if (not isinstance(oracle_timing, dict) or
                "decision_latency_us" not in oracle_timing):
            fail(path, f"{where}: unsharded.timing.decision_latency_us "
                       f"missing")
        validate_histogram(
            path, f"{where}: unsharded.timing.decision_latency_us",
            oracle_timing["decision_latency_us"])
        delta = payload.get("delta")
        if not isinstance(delta, dict):
            fail(path, f"{where}: oracle ran but 'delta' missing")
        for key in ("utility_mean", "jct_mean_s", "makespan_s"):
            _require_number(path, f"{where}: delta.{key}", delta.get(key))
        for name in _OPTIONAL_HISTOGRAMS:
            if name in oracle_timing:
                validate_histogram(
                    path, f"{where}: unsharded.timing.{name}",
                    oracle_timing[name])


def _validate_advance_micro_payload(path, where, payload):
    """BENCH_advance_micro replicas: event counts plus the stage
    histograms and the throughput scalar."""
    _require_number(path, f"{where}: machines", payload.get("machines"),
                    minimum=1)
    multi_pct = payload.get("multi_pct")
    _require_number(path, f"{where}: multi_pct", multi_pct, minimum=0)
    if multi_pct > 100:
        fail(path, f"{where}: multi_pct {multi_pct!r} is not a percentage")
    for key in ("places", "removes", "queries", "events"):
        _require_number(path, f"{where}: {key}", payload.get(key), minimum=0)
    if payload["events"] != payload["places"] + payload["removes"]:
        fail(path, f"{where}: events {payload['events']!r} != places + "
                   f"removes")
    timing = payload.get("timing")
    if not isinstance(timing, dict):
        fail(path, f"{where}: timing subtree missing")
    for name in ("place_us", "remove_us", "query_us"):
        if name not in timing:
            fail(path, f"{where}: timing.{name} missing")
        validate_histogram(path, f"{where}: timing.{name}", timing[name])
    _require_number(path, f"{where}: timing.events_per_sec",
                    timing.get("events_per_sec"), minimum=0)


def validate_bench(path, doc):
    if not isinstance(doc, dict):
        fail(path, "bench document must be an object")
    if doc.get("schema_version") != 1:
        fail(path, f"bad schema_version {doc.get('schema_version')!r}")
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        fail(path, "missing name")
    scenarios = doc.get("scenarios")
    seeds = doc.get("seeds")
    replicas = doc.get("replicas")
    if not isinstance(scenarios, list) or not scenarios:
        fail(path, "missing scenarios array")
    if not isinstance(seeds, list) or not seeds:
        fail(path, "missing seeds array")
    if not isinstance(replicas, list) or not replicas:
        fail(path, "missing replicas array")
    if len(replicas) != len(scenarios) * len(seeds):
        fail(path, f"expected {len(scenarios)}x{len(seeds)} replicas, "
                   f"got {len(replicas)}")
    # Execution-config fields (the service-load client shape): optional,
    # but when present they must be sane and agree between the run
    # metadata and every replica payload — bench_compare.py keys its
    # config guard on them.
    metadata = doc.get("metadata")
    metadata = metadata if isinstance(metadata, dict) else {}
    if "pipeline" in metadata and not isinstance(metadata["pipeline"], bool):
        fail(path, f"metadata['pipeline']: expected bool, got "
                   f"{metadata['pipeline']!r}")
    for index, replica in enumerate(replicas):
        where = f"replicas[{index}]"
        if replica.get("scenario") not in scenarios:
            fail(path, f"{where}: unknown scenario "
                       f"{replica.get('scenario')!r}")
        if replica.get("seed") not in seeds:
            fail(path, f"{where}: unknown seed {replica.get('seed')!r}")
        payload = replica.get("payload")
        if not isinstance(payload, dict):
            fail(path, f"{where}: missing payload object")
        if "pipeline" in payload:
            value = payload["pipeline"]
            if not isinstance(value, bool):
                fail(path, f"{where}: payload['pipeline']: expected bool, "
                           f"got {value!r}")
            if "pipeline" in metadata and value != metadata["pipeline"]:
                fail(path, f"{where}: payload['pipeline'] {value!r} "
                           f"disagrees with metadata "
                           f"{metadata['pipeline']!r}")
        if "sharded" in payload:
            _validate_scale_payload(path, where, payload)
        policies = payload.get("policies")
        if isinstance(policies, dict):
            for policy, run in policies.items():
                if isinstance(run, dict):
                    _validate_capacity_skips(
                        path, f"{where}: policies.{policy}", run)
        if metadata.get("experiment") == "advance_micro":
            _validate_advance_micro_payload(path, where, payload)
    aggregates = doc.get("aggregates")
    if not isinstance(aggregates, dict):
        fail(path, "missing aggregates object")
    for scenario, fields in aggregates.items():
        if scenario not in scenarios:
            fail(path, f"aggregates: unknown scenario {scenario!r}")
        for field, stats in fields.items():
            for key in _STAT_KEYS:
                if not isinstance(stats.get(key), (int, float)):
                    fail(path, f"aggregates['{scenario}']['{field}']: "
                               f"missing numeric '{key}'")
    return (f"bench ok: '{doc['name']}' {len(scenarios)} scenario(s) x "
            f"{len(seeds)} seed(s), {len(replicas)} replicas")


_PROM_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_PROM_SAMPLE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*\Z")
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _prom_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)  # accepts "NaN" too


def _prom_family(name):
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def validate_prom(path, lines):
    """Prometheus text-format 0.0.4 grammar + histogram monotonicity."""
    types = {}       # family -> declared type
    helps = set()
    samples = 0
    # (family, frozen non-le labels) -> list of (le, value) in file order,
    # and the same key -> _count value, for the cumulative cross-check.
    buckets = {}
    counts = {}
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        where = f"line {number}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: legal, ignored
            name = parts[2]
            if not _PROM_NAME.match(name):
                fail(path, f"{where}: bad metric name {name!r}")
            if parts[1] == "HELP":
                if name in helps:
                    fail(path, f"{where}: duplicate HELP for {name}")
                helps.add(name)
            else:
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    fail(path, f"{where}: bad TYPE {kind!r} for {name}")
                if name in types:
                    fail(path, f"{where}: duplicate TYPE for {name}")
                types[name] = kind
            continue
        match = _PROM_SAMPLE.match(line)
        if not match:
            fail(path, f"{where}: not a sample line: {line!r}")
        name = match.group("name")
        try:
            value = _prom_value(match.group("value"))
        except ValueError:
            fail(path, f"{where}: bad sample value {match.group('value')!r}")
        family = _prom_family(name)
        declared = types.get(family, types.get(name))
        if declared is None:
            fail(path, f"{where}: sample {name} has no preceding # TYPE")
        labels = dict(_PROM_LABEL.findall(match.group("labels") or ""))
        if name.endswith("_bucket") and declared == "histogram":
            if "le" not in labels:
                fail(path, f"{where}: histogram bucket without le label")
            try:
                le = _prom_value(labels["le"])
            except ValueError:
                fail(path, f"{where}: bad le value {labels['le']!r}")
            key = (family,
                   tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le")))
            buckets.setdefault(key, []).append((number, le, value))
        elif name.endswith("_count") and declared == "histogram":
            key = (family, tuple(sorted(labels.items())))
            counts[key] = (number, value)
        elif declared == "counter" and value < 0:
            fail(path, f"{where}: negative counter {name}")
        samples += 1
    histograms = 0
    for (family, label_key), series in buckets.items():
        where = f"histogram {family}"
        last_le, last_value = -math.inf, -math.inf
        for number, le, value in series:
            if le <= last_le:
                fail(path, f"{where}: le not increasing at line {number}")
            if value < last_value:
                fail(path, f"{where}: cumulative bucket count decreases "
                           f"at line {number}")
            last_le, last_value = le, value
        if not math.isinf(last_le):
            fail(path, f"{where}: missing le=\"+Inf\" bucket")
        count = counts.get((family, label_key))
        if count is None:
            fail(path, f"{where}: missing _count sample")
        if count[1] != last_value:
            fail(path, f"{where}: +Inf bucket {last_value} != _count "
                       f"{count[1]} (line {count[0]})")
        histograms += 1
    if samples == 0:
        fail(path, "no samples")
    return (f"prom ok: {samples} samples, {len(types)} families, "
            f"{histograms} histogram series")


_FLIGHT_EVENTS = ("admission", "decision", "postponement", "backpressure",
                  "snapshot", "error")


def validate_flight(path, lines):
    """Flight-recorder JSONL: schema + strictly increasing sequence."""
    last_sequence = -1
    records = 0
    events = {}
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"line {number}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            fail(path, f"{where}: {error}")
        if record.get("kind") != "flight":
            fail(path, f"{where}: bad kind {record.get('kind')!r}")
        for key in ("seq", "event", "wall_us", "sim_s", "job", "a", "b",
                    "detail"):
            if key not in record:
                fail(path, f"{where}: missing '{key}'")
        if record["event"] not in _FLIGHT_EVENTS:
            fail(path, f"{where}: unknown event {record['event']!r}")
        sequence = record["seq"]
        if not isinstance(sequence, int) or sequence <= last_sequence:
            fail(path, f"{where}: sequence {sequence!r} not increasing")
        last_sequence = sequence
        if (not isinstance(record["wall_us"], (int, float)) or
                record["wall_us"] < 0):
            fail(path, f"{where}: bad wall_us {record['wall_us']!r}")
        if not isinstance(record["job"], int):
            fail(path, f"{where}: bad job {record['job']!r}")
        events[record["event"]] = events.get(record["event"], 0) + 1
        records += 1
    if records == 0:
        fail(path, "no flight records")
    summary = " ".join(f"{k}={v}" for k, v in sorted(events.items()))
    return f"flight ok: {records} events ({summary})"


def _sniff_jsonl(text):
    """flight vs explain: peek at the first record's "kind"."""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return "explain"
        if isinstance(record, dict) and record.get("kind") == "flight":
            return "flight"
        return "explain"
    return "explain"


def sniff_kind(path, text):
    if path.endswith(".prom"):
        return "prom"
    if path.endswith(".jsonl"):
        return _sniff_jsonl(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        stripped = text.lstrip()
        if stripped and not stripped.startswith(("{", "[")):
            return "prom"  # text exposition, not JSON at all
        return _sniff_jsonl(text)  # JSONL files are not one JSON document
    if isinstance(doc, dict) and doc.get("kind") == "metrics":
        return "metrics"
    if isinstance(doc, dict) and doc.get("kind") == "svc_snapshot":
        return "snapshot"
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "trace"
    if isinstance(doc, dict) and "replicas" in doc and "name" in doc:
        return "bench"
    fail(path, "cannot determine document kind "
               "(trace/metrics/explain/snapshot/bench/prom/flight)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("auto", "trace", "metrics",
                                           "explain", "snapshot", "bench",
                                           "prom", "flight"),
                        default="auto")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    status = 0
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            kind = args.kind if args.kind != "auto" else sniff_kind(path, text)
            if kind == "trace":
                message = validate_trace(path, json.loads(text))
            elif kind == "metrics":
                message = validate_metrics(path, json.loads(text))
            elif kind == "snapshot":
                message = validate_snapshot(path, json.loads(text))
            elif kind == "bench":
                message = validate_bench(path, json.loads(text))
            elif kind == "prom":
                message = validate_prom(path, text.splitlines())
            elif kind == "flight":
                message = validate_flight(path, text.splitlines())
            else:
                message = validate_explain(path, text.splitlines())
            print(f"{path}: {message}")
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"FAIL {error}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
