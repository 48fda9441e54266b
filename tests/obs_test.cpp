// The observability layer (src/obs/): tracing, metrics registry and
// decision-explain records. The two contracts under test:
//
//   * off by default and zero-cost when off — no events, no instruments,
//     no files;
//   * a pure observer when on — enabling every pillar must not change a
//     single scheduling decision on a seeded trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cluster/recorder.hpp"
#include "exp/scenarios.hpp"
#include "json/json.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "perf/model.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "util/log.hpp"

namespace gts::obs {
namespace {

using topo::builders::MachineShape;

/// Every test starts and ends with observability fully off and empty.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override {
    reset();
    EXPECT_TRUE(util::Logger::instance().configure_from_spec("warn"));
    util::Logger::instance().clear_component_levels();
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
  }
};

ObsConfig tracing_config(unsigned categories = kAllCategories) {
  ObsConfig config;
  config.tracing = true;
  config.categories = categories;
  return config;
}

// --- disabled mode -------------------------------------------------------

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  EXPECT_FALSE(tracing_enabled(kSched));
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(explain_enabled());

  const json::Value before = Registry::instance().snapshot_json();
  {
    GTS_TRACE_SPAN(kSched, "off.span");
    GTS_TRACE_INSTANT(kSched, "off.instant");
    GTS_TRACE_COUNTER(kSched, "off.counter", 1.0);
    GTS_METRIC_COUNT("off.count", 1);
    GTS_METRIC_GAUGE_SET("off.gauge", 1.0);
    GTS_METRIC_HISTOGRAM("off.hist", 1.0, latency_bounds_us());
  }
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_EQ(Registry::instance().snapshot_json(), before);
  EXPECT_EQ(DecisionScope::current(), nullptr);
}

// --- tracing -------------------------------------------------------------

TEST_F(ObsTest, SpanGuardRecordsNestedCompleteEventsWithArgs) {
  ASSERT_TRUE(configure(tracing_config()));
  {
    GTS_TRACE_SPAN(kSched, "outer");
    {
      SpanGuard inner(kSched, "inner");
      inner.arg("job", 7.0).arg("gpus", 2.0);
    }
  }
  EXPECT_EQ(trace_event_count(), 2u);

  const json::Value doc = trace_to_json();
  ASSERT_TRUE(validate_trace_json(doc));
  bool found_inner = false;
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() != "inner") continue;
    found_inner = true;
    EXPECT_EQ(event.at("ph").as_string(), "X");
    EXPECT_EQ(event.at("cat").as_string(), "sched");
    EXPECT_TRUE(event.at("dur").is_number());
    EXPECT_DOUBLE_EQ(event.at("args").at("job").as_number(), 7.0);
    EXPECT_DOUBLE_EQ(event.at("args").at("gpus").as_number(), 2.0);
  }
  EXPECT_TRUE(found_inner);
}

TEST_F(ObsTest, CategoryMaskFiltersAtRuntime) {
  ASSERT_TRUE(configure(tracing_config(kSched)));
  EXPECT_TRUE(tracing_enabled(kSched));
  EXPECT_FALSE(tracing_enabled(kFm));
  {
    GTS_TRACE_SPAN(kSched, "kept");
    GTS_TRACE_SPAN(kFm, "dropped");
  }
  ASSERT_EQ(trace_event_count(), 1u);
  const json::Value doc = trace_to_json();
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() == "M") continue;
    EXPECT_EQ(event.at("name").as_string(), "kept");
  }
}

TEST_F(ObsTest, ThreadsGetDistinctBuffersAndTids) {
  ASSERT_TRUE(configure(tracing_config()));
  GTS_TRACE_INSTANT(kSched, "main.thread");
  std::thread worker([] { GTS_TRACE_INSTANT(kSched, "worker.thread"); });
  worker.join();
  EXPECT_EQ(trace_event_count(), 2u);

  const json::Value doc = trace_to_json();
  ASSERT_TRUE(validate_trace_json(doc));
  long long main_tid = -1;
  long long worker_tid = -1;
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == "main.thread") {
      main_tid = event.at("tid").as_int();
    } else if (event.at("name").as_string() == "worker.thread") {
      worker_tid = event.at("tid").as_int();
    }
  }
  EXPECT_GE(main_tid, 0);
  EXPECT_GE(worker_tid, 0);
  EXPECT_NE(main_tid, worker_tid);
}

TEST_F(ObsTest, BeginEndPairsAndSimClockStamping) {
  ASSERT_TRUE(configure(tracing_config()));
  const double sim_now = 12.5;
  {
    SimClockScope clock(&sim_now);
    trace_begin(kDrb, "phase");
    GTS_TRACE_INSTANT(kDrb, "tick");
    trace_end(kDrb, "phase");
  }
  const json::Value doc = trace_to_json();
  ASSERT_TRUE(validate_trace_json(doc));
  int begins = 0;
  int ends = 0;
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    const std::string& phase = event.at("ph").as_string();
    if (phase == "B") ++begins;
    if (phase == "E") ++ends;
    if (event.at("name").as_string() == "tick") {
      EXPECT_DOUBLE_EQ(event.at("args").at("sim_s").as_number(), sim_now);
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST_F(ObsTest, TraceRoundTripsThroughFile) {
  const std::string path = temp_path("obs_trace_roundtrip.json");
  ObsConfig config = tracing_config();
  config.trace_out = path;
  ASSERT_TRUE(configure(config));
  GTS_TRACE_INSTANT(kBench, "file.me");

  const auto written = finalize();
  ASSERT_TRUE(written);
  ASSERT_EQ(written->size(), 1u);
  EXPECT_EQ(written->front(), path);

  const auto parsed = json::parse_file(path);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(validate_trace_json(*parsed));
  std::remove(path.c_str());
}

// --- metrics -------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  const double bounds[] = {1.0, 2.0, 5.0};
  HistogramData h{std::span<const double>(bounds)};
  h.record(1.0);   // on the first edge -> bucket 0
  h.record(1.5);   // inside (1, 2]     -> bucket 1
  h.record(2.0);   // on the edge       -> bucket 1
  h.record(5.0);   // last bounded      -> bucket 2
  h.record(50.0);  // beyond            -> overflow bucket

  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 59.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
  // Percentiles are monotone and the overflow bucket reports the max.
  EXPECT_LE(h.percentile(0.25), h.percentile(0.75));
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 50.0);

  HistogramData other{std::span<const double>(bounds)};
  other.record(1.5);
  h.merge(other);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.bucket_count(1), 3);
}

TEST_F(ObsTest, RegistrySnapshotIsIdenticalAcrossResetReplicas) {
  ObsConfig config;
  config.metrics = true;
  ASSERT_TRUE(configure(config));

  const topo::TopologyGraph topology = topo::builders::power8_minsky();
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = exp::table1_jobs(model, topology);

  const auto run_replica = [&] {
    Registry::instance().reset();
    exp::run_policy(sched::Policy::kTopoAwareP, jobs, topology, model);
    json::Value snapshot = Registry::instance().snapshot_json();
    // The latency histograms are wall-clock-derived; everything else is a
    // pure function of the (deterministic) decision sequence.
    snapshot.mutable_object()["histograms"].mutable_object().erase(
        "sched.decision_latency_us");
    snapshot.mutable_object()["histograms"].mutable_object().erase(
        "sched.advance_latency_us");
    return snapshot;
  };

  const json::Value first = run_replica();
  const json::Value second = run_replica();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.at("counters").at("sim.events").as_number(), 0.0);
  EXPECT_GT(first.at("counters").at("sched.placements").as_number(), 0.0);
  EXPECT_GT(first.at("counters").at("drb.bipartitions").as_number(), 0.0);
}

TEST_F(ObsTest, MetricsDocumentValidates) {
  ObsConfig config;
  config.metrics = true;
  ASSERT_TRUE(configure(config));
  GTS_METRIC_COUNT("doc.count", 3);
  GTS_METRIC_GAUGE_SET("doc.gauge", 0.5);
  GTS_METRIC_HISTOGRAM("doc.hist", 42.0, latency_bounds_us());

  const json::Value doc = metrics_document();
  EXPECT_TRUE(validate_metrics_json(doc));
  EXPECT_EQ(doc.at("metrics").at("counters").at("doc.count").as_int(), 3);

  // A malformed document must be rejected.
  json::Value broken = doc;
  broken.mutable_object().erase("metrics");
  EXPECT_FALSE(validate_metrics_json(broken));
}

// --- explain -------------------------------------------------------------

TEST_F(ObsTest, ExplainLogWritesSequencedJsonlRecords) {
  const std::string path = temp_path("obs_explain.jsonl");
  ObsConfig config;
  config.explain_out = path;
  ASSERT_TRUE(configure(config));
  ASSERT_TRUE(explain_enabled());

  for (int job = 0; job < 3; ++job) {
    DecisionScope scope("TEST", job, 2, 0.5, static_cast<double>(job));
    ASSERT_EQ(DecisionScope::current(), &scope);
    ExplainCandidate candidate;
    candidate.gpus = {0, 1};
    candidate.terms.utility = 0.8;
    candidate.source = "test";
    scope.add_candidate(std::move(candidate));
    scope.record().outcome = "placed";
    scope.record().gpus = {0, 1};
    scope.commit();
  }
  EXPECT_EQ(DecisionScope::current(), nullptr);
  ASSERT_TRUE(finalize());

  const auto records = read_explain_jsonl(path);
  ASSERT_TRUE(records);
  ASSERT_EQ(records->size(), 3u);
  for (size_t i = 0; i < records->size(); ++i) {
    const json::Value& record = (*records)[i];
    EXPECT_EQ(record.at("sequence").as_int(), static_cast<long long>(i));
    EXPECT_EQ(record.at("policy").as_string(), "TEST");
    EXPECT_EQ(record.at("outcome").as_string(), "placed");
    EXPECT_EQ(record.at("candidates").as_array().size(), 1u);
  }
  std::remove(path.c_str());
}

// --- logger --------------------------------------------------------------

TEST_F(ObsTest, LoggerComponentOverridesFollowSpec) {
  util::Logger& logger = util::Logger::instance();
  ASSERT_TRUE(logger.configure_from_spec("warn,fm=trace,sched=error"));
  EXPECT_TRUE(logger.enabled(util::LogLevel::kTrace, "fm"));
  EXPECT_FALSE(logger.enabled(util::LogLevel::kWarn, "sched"));
  EXPECT_TRUE(logger.enabled(util::LogLevel::kError, "sched"));
  // Unlisted components fall back to the global threshold.
  EXPECT_FALSE(logger.enabled(util::LogLevel::kInfo, "cluster"));
  EXPECT_TRUE(logger.enabled(util::LogLevel::kWarn, "cluster"));
  // A malformed spec is rejected atomically (no partial application).
  EXPECT_FALSE(logger.configure_from_spec("fm=notalevel"));
  EXPECT_TRUE(logger.enabled(util::LogLevel::kTrace, "fm"));
}

TEST_F(ObsTest, LogLinesMirrorIntoTraceWhenLogCategoryTraced) {
  ASSERT_TRUE(configure(tracing_config()));
  util::Logger::instance().write(util::LogLevel::kWarn, "sched",
                                 "mirrored line");
  bool found = false;
  const json::Value doc = trace_to_json();
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() != "log.line") continue;
    found = true;
    EXPECT_EQ(event.at("cat").as_string(), "log");
    EXPECT_NE(event.at("args").at("text").as_string().find("mirrored line"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
}

// --- configuration -------------------------------------------------------

TEST_F(ObsTest, CategorySpecRoundTrips) {
  const auto mask = parse_categories("sched,fm");
  ASSERT_TRUE(mask);
  EXPECT_EQ(*mask, static_cast<unsigned>(kSched) | static_cast<unsigned>(kFm));
  EXPECT_EQ(categories_to_string(*mask), "sched,fm");
  const auto all = parse_categories("all");
  ASSERT_TRUE(all);
  EXPECT_EQ(*all, kAllCategories);
  EXPECT_EQ(categories_to_string(*all), "all");
  EXPECT_FALSE(parse_categories("sched,bogus"));
}

// --- the headline property ----------------------------------------------

void expect_identical_records(const cluster::Recorder& with_obs,
                              const cluster::Recorder& without_obs) {
  ASSERT_EQ(with_obs.records().size(), without_obs.records().size());
  for (size_t i = 0; i < with_obs.records().size(); ++i) {
    const cluster::JobRecord& a = with_obs.records()[i];
    const cluster::JobRecord& b = without_obs.records()[i];
    EXPECT_EQ(a.id, b.id) << "record " << i;
    EXPECT_EQ(a.gpus, b.gpus) << "record " << i;
    EXPECT_DOUBLE_EQ(a.start, b.start) << "record " << i;
    EXPECT_DOUBLE_EQ(a.end, b.end) << "record " << i;
    EXPECT_DOUBLE_EQ(a.placement_utility, b.placement_utility)
        << "record " << i;
    EXPECT_EQ(a.p2p, b.p2p) << "record " << i;
  }
}

// Observability is a pure observer: a seeded 500-job trace on a
// 5-machine cluster schedules identically (same GPUs, same times, same
// utilities, job by job) with every pillar enabled and with all of them
// off.
TEST_F(ObsTest, FullObservabilityDoesNotChangeDecisionsOn500JobTrace) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(5, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  trace::GeneratorOptions gen;
  gen.job_count = 500;
  gen.seed = 20260806;
  const auto jobs = trace::generate_workload(gen, model, topology);

  // Baseline: everything off (the SetUp reset).
  const sched::DriverReport baseline = exp::run_policy(
      sched::Policy::kTopoAwareP, jobs, topology, model);

  const std::string explain_path = temp_path("obs_determinism.jsonl");
  ObsConfig config;
  config.tracing = true;
  config.metrics = true;
  config.explain_out = explain_path;
  ASSERT_TRUE(configure(config));
  const sched::DriverReport observed = exp::run_policy(
      sched::Policy::kTopoAwareP, jobs, topology, model);
  ASSERT_TRUE(finalize());

  ASSERT_EQ(baseline.recorder.records().size(), 500u);
  expect_identical_records(observed.recorder, baseline.recorder);
  EXPECT_EQ(observed.recorder.slo_violations(),
            baseline.recorder.slo_violations());

  // And the observer actually observed: spans, metrics and one explain
  // record per decision.
  EXPECT_GT(trace_event_count(), 0u);
  EXPECT_GT(Registry::instance()
                .snapshot_json()
                .at("counters")
                .at("sched.decisions")
                .as_number(),
            0.0);
  const auto records = read_explain_jsonl(explain_path);
  ASSERT_TRUE(records);
  EXPECT_EQ(records->size(),
            static_cast<size_t>(observed.decision_latency_us.count()));
  std::remove(explain_path.c_str());
}

}  // namespace
}  // namespace gts::obs
