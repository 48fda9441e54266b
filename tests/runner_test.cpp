// The experiment runner: seed-spec parsing, sweep fan-out, aggregation,
// the BENCH JSON document, and — the contract everything else leans on —
// thread-count independence: the same sweep run with --threads 1 and
// --threads 8 must produce byte-identical per-replica payloads and
// aggregates (only the "run" / "timing" sections may differ).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "json/json.hpp"
#include "runner/experiments.hpp"
#include "runner/sweep.hpp"
#include "util/thread_pool.hpp"

namespace gts::runner {
namespace {

// ------------------------------------------------------------ seed spec ----

TEST(SeedSpecTest, CountExpandsToRange) {
  const auto seeds = parse_seed_spec("4");
  ASSERT_TRUE(seeds);
  EXPECT_EQ(*seeds, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(SeedSpecTest, TrailingCommaMeansExplicitList) {
  const auto seeds = parse_seed_spec("42,");
  ASSERT_TRUE(seeds);
  EXPECT_EQ(*seeds, (std::vector<std::uint64_t>{42}));
}

TEST(SeedSpecTest, ExplicitList) {
  const auto seeds = parse_seed_spec("3,5,9");
  ASSERT_TRUE(seeds);
  EXPECT_EQ(*seeds, (std::vector<std::uint64_t>{3, 5, 9}));
}

TEST(SeedSpecTest, RejectsGarbage) {
  EXPECT_FALSE(parse_seed_spec(""));
  EXPECT_FALSE(parse_seed_spec("0"));
  EXPECT_FALSE(parse_seed_spec("abc"));
  EXPECT_FALSE(parse_seed_spec("1,x,3"));
  EXPECT_FALSE(parse_seed_spec(","));
}

// ----------------------------------------------------------- thread pool ---

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  std::atomic<int> sum{0};
  {
    util::ThreadPool pool(4);
    for (int i = 1; i <= 100; ++i) {
      pool.submit([&sum, i] { sum += i; });
    }
    pool.wait_idle();
    EXPECT_EQ(sum.load(), 5050);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(64);
  util::ThreadPool pool(8);
  util::parallel_for(pool, 64,
                     [&](int i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ----------------------------------------------------------------- sweep ---

json::Value simple_payload(const ReplicaContext& context) {
  // Deterministic function of (scenario, seed) plus three rng draws; any
  // cross-replica interference or mis-derived stream shows up as a diff.
  util::Rng rng = context.rng;
  json::Object nested;
  nested["draw"] = rng.uniform();
  json::Object payload;
  payload["seed_times_ten"] = static_cast<double>(context.seed) * 10.0;
  payload["scenario_index"] = context.scenario_index;
  payload["events"] = 100.0;
  payload["nested"] = std::move(nested);
  return payload;
}

TEST(SweepTest, SlotsAreScenarioMajorSeedMinor) {
  SweepOptions options;
  options.name = "order";
  options.scenarios = {"a", "b"};
  options.seeds = {7, 9};
  options.threads = 2;
  const SweepResult result = run_sweep(options, simple_payload);
  ASSERT_EQ(result.replicas.size(), 4u);
  EXPECT_EQ(result.replicas[0].scenario_index, 0);
  EXPECT_EQ(result.replicas[0].seed, 7u);
  EXPECT_EQ(result.replicas[1].seed, 9u);
  EXPECT_EQ(result.replicas[2].scenario_index, 1);
  EXPECT_EQ(result.replica(1, 9).payload.at("scenario_index").as_int(), 1);
  EXPECT_DOUBLE_EQ(result.total_events, 400.0);
}

TEST(SweepTest, AggregatesSummarizeAcrossSeeds) {
  SweepOptions options;
  options.name = "agg";
  options.seeds = {1, 2, 3};
  const SweepResult result = run_sweep(options, simple_payload);
  const metrics::Summary s =
      find_aggregate(result, "default", "seed_times_ten");
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.mean, 20.0);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.max, 30.0);
  // Nested objects aggregate under dotted paths.
  EXPECT_EQ(find_aggregate(result, "default", "nested.draw").count, 3);
}

TEST(SweepTest, ReplicaExceptionIsRethrown) {
  SweepOptions options;
  options.name = "boom";
  options.seeds = {1, 2};
  options.threads = 2;
  EXPECT_THROW(
      run_sweep(options,
                [](const ReplicaContext& context) -> json::Value {
                  if (context.seed == 2) throw std::runtime_error("replica 2");
                  return json::Object{};
                }),
      std::runtime_error);
}

// The determinism regression the runner exists for: identical documents
// (outside the wall-clock sections) regardless of worker count.
TEST(SweepTest, ThreadCountDoesNotChangeResults) {
  const auto sweep_with = [](int threads) {
    SweepOptions options;
    options.name = "det";
    options.scenarios = {"s0", "s1", "s2"};
    options.seeds = {1, 2, 3, 4};
    options.threads = threads;
    return run_sweep(options, [](const ReplicaContext& context) {
      util::Rng rng = context.rng;
      // Burn a variable amount of work so threads finish out of order.
      double acc = 0.0;
      const int spins =
          1000 * (1 + (context.replica_index % 5));
      for (int i = 0; i < spins; ++i) acc += rng.uniform();
      json::Object timing;
      timing["acc_nondet_ok"] = acc / static_cast<double>(spins);
      json::Object payload;
      payload["draw"] = rng.uniform();
      payload["events"] = static_cast<double>(spins);
      payload["timing"] = std::move(timing);
      return json::Value(payload);
    });
  };
  const SweepResult one = sweep_with(1);
  const SweepResult eight = sweep_with(8);

  ASSERT_EQ(one.replicas.size(), eight.replicas.size());
  for (size_t i = 0; i < one.replicas.size(); ++i) {
    EXPECT_EQ(json::write(strip_timing(one.replicas[i].payload)),
              json::write(strip_timing(eight.replicas[i].payload)))
        << "replica " << i;
  }
  // The full deterministic view (metadata, replicas, aggregates) matches
  // byte for byte once the declared-nondeterministic sections are dropped.
  json::Value doc1 = one.to_json(/*include_timing=*/false);
  json::Value doc8 = eight.to_json(/*include_timing=*/false);
  doc1.set("threads", 0);
  doc8.set("threads", 0);
  EXPECT_EQ(json::write(doc1), json::write(doc8));
}

TEST(SweepTest, StripTimingRemovesReservedSubtrees) {
  json::Object timing;
  timing["wall"] = 1.0;
  json::Object inner;
  inner["kept"] = 2.0;
  inner["timing"] = timing;
  json::Object payload;
  payload["inner"] = std::move(inner);
  payload["timing"] = std::move(timing);
  payload["metric"] = 3.0;
  const json::Value stripped = strip_timing(payload);
  EXPECT_FALSE(stripped.contains("timing"));
  EXPECT_FALSE(stripped.at("inner").contains("timing"));
  EXPECT_DOUBLE_EQ(stripped.at("inner").at("kept").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(stripped.at("metric").as_number(), 3.0);
}

TEST(SweepTest, TimingMetricsStayOutOfDeterministicAggregates) {
  SweepOptions options;
  options.name = "timing";
  options.seeds = {1, 2};
  const SweepResult result =
      run_sweep(options, [](const ReplicaContext& context) {
        json::Object timing;
        timing["wall_us"] = static_cast<double>(context.seed) * 3.0;
        json::Object payload;
        payload["metric"] = static_cast<double>(context.seed);
        payload["timing"] = std::move(timing);
        return json::Value(payload);
      });
  bool saw_timing_aggregate = false;
  for (const MetricAggregate& aggregate : result.aggregates) {
    if (aggregate.metric == "timing.wall_us") {
      saw_timing_aggregate = true;
      EXPECT_TRUE(aggregate.timing);
    } else {
      EXPECT_FALSE(aggregate.timing) << aggregate.metric;
    }
  }
  EXPECT_TRUE(saw_timing_aggregate);

  const json::Value doc = result.to_json(/*include_timing=*/true);
  EXPECT_TRUE(doc.at("timing_aggregates")
                  .at("default")
                  .contains("timing.wall_us"));
  EXPECT_FALSE(doc.at("aggregates").at("default").contains("timing.wall_us"));
  // With timing excluded, neither the block nor the subtree survives.
  const json::Value bare = result.to_json(/*include_timing=*/false);
  EXPECT_FALSE(bare.contains("timing_aggregates"));
  EXPECT_FALSE(bare.contains("run"));
  EXPECT_FALSE(
      bare.at("replicas").as_array().front().at("payload").contains("timing"));
}

// ------------------------------------------------------- BENCH documents ---

TEST(BenchJsonTest, ValidatorAcceptsRunnerOutputAndRejectsDamage) {
  SweepOptions options;
  options.name = "val";
  options.scenarios = {"a"};
  options.seeds = {1, 2};
  const SweepResult result = run_sweep(options, simple_payload);
  json::Value doc = result.to_json();
  EXPECT_TRUE(validate_bench_json(doc).is_ok());

  json::Value no_version = doc;
  no_version.mutable_object().erase("schema_version");
  EXPECT_FALSE(validate_bench_json(no_version).is_ok());

  json::Value wrong_count = doc;
  wrong_count.at("replicas");  // keep shape; drop one replica below
  wrong_count.mutable_object()["replicas"].mutable_array().pop_back();
  EXPECT_FALSE(validate_bench_json(wrong_count).is_ok());

  EXPECT_FALSE(validate_bench_json(json::Value(json::Array{})).is_ok());
}

// The ctest-side consumer of the acceptance artifacts: a (tiny) Fig. 10 /
// Fig. 11 sweep written via write_bench_json must round-trip through the
// parser with schema version, metadata and aggregates intact.
TEST(BenchJsonTest, LargeScaleBenchDocumentRoundTrips) {
  for (const char* name : {"fig10", "fig11"}) {
    LargeScaleSweepConfig config;
    config.name = name;
    config.machines = 2;
    config.jobs = 8;
    config.iterations = 50;
    config.seeds = {1, 2};
    config.threads = 2;
    config.include_curves = false;
    const SweepResult result = run_large_scale_sweep(config);

    const std::string path =
        testing::TempDir() + "/BENCH_" + name + ".json";
    ASSERT_TRUE(write_bench_json(result, path).is_ok());

    const auto parsed = json::parse_file(path);
    ASSERT_TRUE(parsed) << parsed.error().message;
    ASSERT_TRUE(validate_bench_json(*parsed).is_ok());
    EXPECT_EQ(parsed->at("schema_version").as_int(), kBenchSchemaVersion);
    EXPECT_EQ(parsed->at("name").as_string(), name);
    EXPECT_EQ(parsed->at("metadata").at("machines").as_int(), 2);
    EXPECT_EQ(parsed->at("metadata").at("jobs").as_int(), 8);
    EXPECT_EQ(parsed->at("metadata").at("policies").as_array().size(), 4u);
    EXPECT_EQ(parsed->at("seeds").as_array().size(), 2u);
    EXPECT_GT(parsed->at("run").at("events").as_number(), 0.0);

    // Every policy's QoS mean was aggregated over both seeds.
    const std::string scenario =
        parsed->at("scenarios").as_array().front().as_string();
    for (const char* policy : {"BF", "FCFS", "TOPO-AWARE", "TOPO-AWARE-P"}) {
      const json::Value& summary =
          parsed->at("aggregates")
              .at(scenario)
              .at(std::string("policies.") + policy + ".qos_mean");
      EXPECT_EQ(summary.at("count").as_int(), 2) << policy;
      EXPECT_GT(summary.at("mean").as_number(), 0.0) << policy;
    }
    // Decision timing lives in the nondeterministic block, not the
    // deterministic aggregates.
    EXPECT_TRUE(parsed->at("timing_aggregates")
                    .at(scenario)
                    .contains("policies.BF.timing.mean_decision_us"));
  }
}

// Replica payloads of a real experiment are thread-count independent once
// timing subtrees are stripped (the regression behind BENCH reproducibility).
TEST(BenchJsonTest, LargeScaleSweepIsThreadCountIndependent) {
  const auto sweep_with = [](int threads) {
    LargeScaleSweepConfig config;
    config.name = "det";
    config.machines = 2;
    config.jobs = 10;
    config.iterations = 50;
    config.seeds = {1, 2, 3};
    config.threads = threads;
    config.include_curves = true;
    return run_large_scale_sweep(config);
  };
  const SweepResult one = sweep_with(1);
  const SweepResult eight = sweep_with(8);
  ASSERT_EQ(one.replicas.size(), eight.replicas.size());
  for (size_t i = 0; i < one.replicas.size(); ++i) {
    EXPECT_EQ(json::write(strip_timing(one.replicas[i].payload)),
              json::write(strip_timing(eight.replicas[i].payload)))
        << "replica " << i;
  }
}

}  // namespace
}  // namespace gts::runner
