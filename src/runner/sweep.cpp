#include "runner/sweep.hpp"

#include <chrono>
#include <exception>
#include <map>
#include <utility>

#include "check/check.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace gts::runner {

namespace {

struct FlatMetric {
  std::string path;
  double value = 0.0;
  bool timing = false;  // under a "timing" subtree somewhere along the path
};

/// Collects every numeric leaf of `value` under dotted paths, recursing
/// into objects only (arrays are payload-only data, not metrics). Leaves
/// below a member named kTimingKey are tagged as timing metrics.
void flatten_numeric(const json::Value& value, const std::string& prefix,
                     bool in_timing, std::vector<FlatMetric>* out) {
  if (value.is_number()) {
    if (!prefix.empty()) out->push_back({prefix, value.as_number(), in_timing});
    return;
  }
  if (!value.is_object()) return;
  for (const auto& [key, member] : value.as_object()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    flatten_numeric(member, path, in_timing || key == kTimingKey, out);
  }
}

json::Value summary_to_json(const metrics::Summary& s) {
  json::Object o;
  o["count"] = s.count;
  o["mean"] = s.mean;
  o["stddev"] = s.stddev;
  o["min"] = s.min;
  o["p50"] = s.p50;
  o["p95"] = s.p95;
  o["max"] = s.max;
  o["ci95_half"] = s.ci95_half;
  return o;
}

}  // namespace

json::Value strip_timing(const json::Value& value) {
  if (value.is_object()) {
    json::Object out;
    for (const auto& [key, member] : value.as_object()) {
      if (key == kTimingKey) continue;
      out[key] = strip_timing(member);
    }
    return out;
  }
  if (value.is_array()) {
    json::Array out;
    for (const json::Value& member : value.as_array()) {
      out.push_back(strip_timing(member));
    }
    return out;
  }
  return value;
}

const Replica& SweepResult::replica(int scenario_index,
                                    std::uint64_t seed) const {
  for (const Replica& r : replicas) {
    if (r.scenario_index == scenario_index && r.seed == seed) return r;
  }
  GTS_CHECK(false, "no replica for scenario ", scenario_index, " seed ", seed);
  return replicas.front();  // unreachable
}

SweepResult run_sweep(const SweepOptions& options, const ReplicaFn& fn) {
  GTS_CHECK(!options.scenarios.empty(), "sweep needs at least one scenario");
  GTS_CHECK(!options.seeds.empty(), "sweep needs at least one seed");

  const int scenario_count = static_cast<int>(options.scenarios.size());
  const int seed_count = static_cast<int>(options.seeds.size());
  const int replica_count = scenario_count * seed_count;

  SweepResult result;
  result.options = options;
  result.replicas.resize(static_cast<size_t>(replica_count));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(replica_count));

  const auto t0 = std::chrono::steady_clock::now();
  {
    util::ThreadPool pool(options.threads);
    util::parallel_for(pool, replica_count, [&](int index) {
      const int scenario_index = index / seed_count;
      const int seed_index = index % seed_count;
      ReplicaContext context;
      context.scenario_index = scenario_index;
      context.scenario = options.scenarios[static_cast<size_t>(scenario_index)];
      context.seed = options.seeds[static_cast<size_t>(seed_index)];
      context.seed_index = seed_index;
      context.replica_index = index;
      context.rng = util::Rng::for_stream(
          context.seed, static_cast<std::uint64_t>(scenario_index));
      Replica& slot = result.replicas[static_cast<size_t>(index)];
      slot.scenario_index = scenario_index;
      slot.seed = context.seed;
      obs::SpanGuard replica_span(obs::kRunner, "runner.replica");
      replica_span.arg("scenario", scenario_index)
          .arg("seed", static_cast<double>(context.seed))
          .arg("replica", index);
      try {
        slot.payload = fn(context);
      } catch (...) {
        errors[static_cast<size_t>(index)] = std::current_exception();
      }
    });
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Aggregate every numeric payload field per scenario, in first-seen
  // order within the first replica of the scenario (deterministic: slots
  // are walked seed-minor).
  for (int s = 0; s < scenario_count; ++s) {
    std::vector<std::string> order;
    std::map<std::string, std::vector<double>> by_metric;
    std::map<std::string, bool> is_timing;
    for (int k = 0; k < seed_count; ++k) {
      const Replica& r =
          result.replicas[static_cast<size_t>(s * seed_count + k)];
      std::vector<FlatMetric> flat;
      flatten_numeric(r.payload, "", /*in_timing=*/false, &flat);
      for (const FlatMetric& m : flat) {
        auto [it, inserted] = by_metric.try_emplace(m.path);
        if (inserted) order.push_back(m.path);
        it->second.push_back(m.value);
        is_timing[m.path] = m.timing;
        if (m.path == "events") result.total_events += m.value;
      }
    }
    for (const std::string& metric : order) {
      MetricAggregate aggregate;
      aggregate.scenario = options.scenarios[static_cast<size_t>(s)];
      aggregate.metric = metric;
      aggregate.summary = metrics::summarize(by_metric[metric]);
      aggregate.timing = is_timing[metric];
      result.aggregates.push_back(std::move(aggregate));
    }
  }
  return result;
}

json::Value SweepResult::to_json(bool include_timing) const {
  json::Object doc;
  doc["schema_version"] = kBenchSchemaVersion;
  doc["generator"] = "gpu-topo-sched";
  doc["name"] = options.name;

  json::Array scenario_array;
  for (const std::string& scenario : options.scenarios) {
    scenario_array.push_back(scenario);
  }
  doc["scenarios"] = std::move(scenario_array);

  json::Array seed_array;
  for (const std::uint64_t seed : options.seeds) {
    seed_array.push_back(static_cast<long long>(seed));
  }
  doc["seeds"] = std::move(seed_array);
  doc["threads"] = options.threads;
  doc["metadata"] = options.metadata;

  json::Array replica_array;
  for (const Replica& r : replicas) {
    json::Object entry;
    entry["scenario"] =
        options.scenarios[static_cast<size_t>(r.scenario_index)];
    entry["seed"] = static_cast<long long>(r.seed);
    entry["payload"] = include_timing ? r.payload : strip_timing(r.payload);
    replica_array.push_back(std::move(entry));
  }
  doc["replicas"] = std::move(replica_array);

  // aggregates: { "<scenario>": { "<metric>": {count, mean, ...} } }.
  // Wall-clock-derived metrics ("timing" subtrees) go into the separate
  // timing_aggregates block so "aggregates" stays deterministic.
  json::Object aggregate_doc;
  json::Object timing_doc;
  for (const MetricAggregate& aggregate : aggregates) {
    json::Object& dest = aggregate.timing ? timing_doc : aggregate_doc;
    dest[aggregate.scenario].set(aggregate.metric,
                                 summary_to_json(aggregate.summary));
  }
  doc["aggregates"] = std::move(aggregate_doc);

  if (include_timing) {
    if (!timing_doc.empty()) doc["timing_aggregates"] = std::move(timing_doc);
    json::Object run;
    run["wall_seconds"] = wall_seconds;
    run["events"] = total_events;
    run["events_per_second"] = events_per_second();
    doc["run"] = std::move(run);
  }
  return doc;
}

util::Expected<std::vector<std::uint64_t>> parse_seed_spec(
    const std::string& spec) {
  if (spec.empty()) return util::Error{"--seeds: empty spec"};
  const auto parse_one =
      [](const std::string& token) -> util::Expected<std::uint64_t> {
    if (token.empty() || token.find_first_not_of("0123456789") !=
                             std::string::npos) {
      return util::Error{"--seeds: '" + token + "' is not a number"};
    }
    return static_cast<std::uint64_t>(std::stoull(token));
  };
  if (spec.find(',') == std::string::npos) {
    // A replica count: N -> seeds 1..N.
    const auto count = parse_one(spec);
    if (!count) return count.error();
    if (*count == 0) return util::Error{"--seeds: count must be >= 1"};
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 1; s <= *count; ++s) seeds.push_back(s);
    return seeds;
  }
  std::vector<std::uint64_t> seeds;
  for (const std::string& token : util::split(spec, ',')) {
    if (token.empty()) continue;  // tolerate the "42," explicit-list form
    const auto seed = parse_one(token);
    if (!seed) return seed.error();
    seeds.push_back(*seed);
  }
  if (seeds.empty()) return util::Error{"--seeds: no seeds in list"};
  return seeds;
}

util::Status write_bench_json(const SweepResult& result,
                              const std::string& path) {
  json::WriteOptions options;
  options.indent = 2;
  return json::write_file(result.to_json(), path, options);
}

util::Status validate_bench_json(const json::Value& doc) {
  if (!doc.is_object()) return util::Error{"BENCH: document is not an object"};
  if (doc.at("schema_version").as_int(-1) != kBenchSchemaVersion) {
    return util::Error{"BENCH: schema_version missing or unsupported"};
  }
  if (!doc.at("name").is_string() || doc.at("name").as_string().empty()) {
    return util::Error{"BENCH: missing name"};
  }
  for (const char* key : {"scenarios", "seeds", "replicas"}) {
    if (!doc.at(key).is_array() || doc.at(key).as_array().empty()) {
      return util::Error{std::string("BENCH: missing or empty ") + key};
    }
  }
  const size_t expected = doc.at("scenarios").as_array().size() *
                          doc.at("seeds").as_array().size();
  if (doc.at("replicas").as_array().size() != expected) {
    return util::Error{"BENCH: replica count does not match scenarios x seeds"};
  }
  for (const json::Value& replica : doc.at("replicas").as_array()) {
    if (!replica.contains("scenario") || !replica.contains("seed") ||
        !replica.contains("payload")) {
      return util::Error{"BENCH: replica missing scenario/seed/payload"};
    }
  }
  if (!doc.at("aggregates").is_object()) {
    return util::Error{"BENCH: missing aggregates"};
  }
  return util::Status::ok();
}

}  // namespace gts::runner
