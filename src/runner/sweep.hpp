// Parallel (scenario x seed) sweep runner with versioned BENCH JSON output.
//
// The paper's headline results (Figs. 8-11) rest on repeated trace-driven
// simulations; this runner fans the replicas out over worker threads
// and aggregates their metrics. Determinism contract:
//
//   * one replica == one (scenario, seed) cell; the replica function must
//     build everything it touches (sched::Driver, ClusterState, topology,
//     model) locally — replicas share no mutable state;
//   * a replica's util::Rng comes from util::Rng::for_stream(seed, stream)
//     where stream is the scenario index, a pure derivation independent of
//     worker thread and start order;
//   * results land in slots indexed by replica number, and aggregation
//     walks those slots in order — so every section of the emitted JSON
//     except the wall-clock-derived ones ("run", "timing_aggregates", and
//     "timing" payload subtrees) is byte-identical for any --threads
//     value.
//
// The emitted document ("BENCH_<name>.json", schema_version 1) carries run
// metadata (scenarios, seeds, threads, policy tags), the raw per-replica
// payloads, and per-scenario aggregates (mean / stddev / p50 / p95 /
// min / max / 95% CI) of every numeric field found in the payloads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "metrics/stats.hpp"
#include "util/expected.hpp"
#include "util/rng.hpp"

namespace gts::runner {

inline constexpr int kBenchSchemaVersion = 1;

/// Reserved payload key: an object member named "timing" (at any depth)
/// holds wall-clock-derived measurements (e.g. the Section 5.5.3
/// per-decision overhead). Timing subtrees are aggregated into a separate
/// "timing_aggregates" block and excluded from the determinism contract —
/// everything else in the document is byte-identical for any thread count.
inline constexpr const char* kTimingKey = "timing";

/// Deep copy of `value` with every object member named "timing" removed:
/// the deterministic view of a payload.
json::Value strip_timing(const json::Value& value);

/// Everything a replica may depend on. The rng is ready to draw from; a
/// replica needing several independent streams should fork() it locally.
struct ReplicaContext {
  int scenario_index = 0;
  std::string scenario;       // label from SweepOptions::scenarios
  std::uint64_t seed = 0;
  int seed_index = 0;
  int replica_index = 0;      // scenario-major, seed-minor
  util::Rng rng;              // util::Rng::for_stream(seed, scenario_index)
};

/// Runs one replica and returns its payload: a JSON object whose numeric
/// fields (top level or nested in sub-objects, dotted paths) are
/// aggregated across the seeds of the same scenario. Arrays are carried
/// through verbatim but not aggregated. A payload field named "events" is
/// additionally summed into the run's events/sec throughput figure.
using ReplicaFn = std::function<json::Value(const ReplicaContext&)>;

struct SweepOptions {
  std::string name;                              // "fig10" -> BENCH_fig10.json
  std::vector<std::string> scenarios = {"default"};
  std::vector<std::uint64_t> seeds = {1};
  int threads = 1;                               // <= 0: hardware concurrency
  /// Extra run metadata echoed into the document (policy, cluster size...).
  json::Object metadata;
};

struct Replica {
  int scenario_index = 0;
  std::uint64_t seed = 0;
  json::Value payload;
};

struct MetricAggregate {
  std::string scenario;
  std::string metric;        // dotted path into the payload
  metrics::Summary summary;  // across the scenario's seeds
  bool timing = false;       // lives under a "timing" subtree
};

struct SweepResult {
  SweepOptions options;
  std::vector<Replica> replicas;          // scenario-major, seed-minor
  std::vector<MetricAggregate> aggregates;
  double wall_seconds = 0.0;
  double total_events = 0.0;              // sum of payload "events" fields

  double events_per_second() const {
    return wall_seconds > 0.0 ? total_events / wall_seconds : 0.0;
  }

  const Replica& replica(int scenario_index, std::uint64_t seed) const;

  /// The BENCH document. `include_timing` keeps the nondeterministic
  /// sections: the "run" block (wall clock, events/sec), the
  /// "timing_aggregates" block, and the "timing" subtrees of replica
  /// payloads. to_json(false) is the fully deterministic view.
  json::Value to_json(bool include_timing = true) const;
};

/// Fans the (scenario x seed) matrix out over min(threads, replicas)
/// worker threads that claim replica indices from one atomic counter, and
/// aggregates. Replica exceptions are rethrown (first in replica order)
/// after every worker has joined. Deterministic: see the header comment.
SweepResult run_sweep(const SweepOptions& options, const ReplicaFn& fn);

/// Seed-spec grammar shared by the bench binaries' --seeds flag:
///   "8"      -> {1, 2, ..., 8}        (a replica count)
///   "42,"    -> {42}                  (explicit list, trailing comma ok)
///   "3,5,9"  -> {3, 5, 9}
util::Expected<std::vector<std::uint64_t>> parse_seed_spec(
    const std::string& spec);

/// Serializes result.to_json() (pretty, indent 2) to `path`.
util::Status write_bench_json(const SweepResult& result,
                              const std::string& path);

/// Structural check of a BENCH document: schema_version, name, seeds,
/// scenarios, replicas and aggregates present and well-formed.
util::Status validate_bench_json(const json::Value& doc);

}  // namespace gts::runner
