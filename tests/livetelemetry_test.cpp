// The live-telemetry layer (DESIGN.md section 18): sliding-window
// aggregates, the Prometheus text exposition, the crash-safe flight
// recorder, and the per-job lifecycle/SLO accounting. The contracts
// under test:
//
//   * windows advance and expire deterministically under the manual
//     window clock (no wall-clock flakiness);
//   * the exposition round-trips the Prometheus 0.0.4 grammar — every
//     sample family is typed, histogram buckets are cumulative and
//     +Inf-terminated;
//   * the flight ring wraps keeping the most recent events, and a
//     GTS_CHECK failure dumps it to the configured path;
//   * lifecycle accounting matches a hand-computed five-job trace;
//   * the whole layer is a pure observer: a seeded 500-job trace
//     schedules identically with windows + flight recorder on and off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "cluster/recorder.hpp"
#include "exp/scenarios.hpp"
#include "json/json.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/prom.hpp"
#include "obs/window.hpp"
#include "perf/model.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"

namespace gts::obs {
namespace {

using topo::builders::MachineShape;

/// Every test starts and ends with observability fully off, the window
/// clock back on wall time, and the check machinery in its default mode.
class LiveTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override {
    reset();
    check::set_failure_mode(check::FailureMode::kAbort);
    check::reset_failure_count();
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
  }
};

ObsConfig windows_config() {
  ObsConfig config;
  config.windows = true;
  return config;
}

const WindowedStats::SpanSnapshot* span_of(
    const std::vector<WindowedStats::SpanSnapshot>& spans, const char* label) {
  for (const auto& span : spans) {
    if (span.label == label) return &span;
  }
  return nullptr;
}

// --- windows: zero-cost off, deterministic advancement under sim clock --

TEST_F(LiveTelemetryTest, DisabledWindowsRecordNothingAndSkipTheValueArg) {
  ASSERT_FALSE(windows_enabled());
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return 1.0;
  };
  GTS_METRIC_WINDOW("off.latency", expensive(), latency_bounds_us());
  EXPECT_EQ(evaluations, 0) << "value argument evaluated while disabled";
  EXPECT_EQ(WindowRegistry::instance().instrument_count(), 0u);
}

TEST_F(LiveTelemetryTest, WindowAdvancementAndExpiryAreDeterministic) {
  ASSERT_TRUE(configure(windows_config()));
  set_window_clock_us(1'000'000);  // t = 1 s

  WindowedStats& stats =
      WindowRegistry::instance().stats("test.latency", latency_bounds_us());
  for (int i = 0; i < 10; ++i) stats.record(100.0);

  // All three spans see the burst, rate = count / span.
  auto spans = stats.snapshot();
  ASSERT_EQ(spans.size(), window_spans().size());
  const auto* w10s = span_of(spans, "10s");
  const auto* w1m = span_of(spans, "1m");
  const auto* w5m = span_of(spans, "5m");
  ASSERT_TRUE(w10s && w1m && w5m);
  EXPECT_EQ(w10s->count, 10);
  EXPECT_DOUBLE_EQ(w10s->rate_per_s, 10.0 / w10s->span_s);
  EXPECT_EQ(w1m->count, 10);
  EXPECT_EQ(w5m->count, 10);
  EXPECT_DOUBLE_EQ(w10s->histogram.mean(), 100.0);

  // t = 8 s: still inside every span.
  set_window_clock_us(8'000'000);
  spans = stats.snapshot();
  EXPECT_EQ(span_of(spans, "10s")->count, 10);

  // t = 15 s: the burst at t=1 s fell out of the 10 s window but not the
  // longer ones.
  set_window_clock_us(15'000'000);
  spans = stats.snapshot();
  EXPECT_EQ(span_of(spans, "10s")->count, 0);
  EXPECT_EQ(span_of(spans, "1m")->count, 10);
  EXPECT_EQ(span_of(spans, "5m")->count, 10);

  // t = 90 s: out of the 1 m window too.
  set_window_clock_us(90'000'000);
  spans = stats.snapshot();
  EXPECT_EQ(span_of(spans, "1m")->count, 0);
  EXPECT_EQ(span_of(spans, "5m")->count, 10);

  // t = 6 min: everything expired. Same clock, same answer — run twice.
  set_window_clock_us(360'000'000);
  for (int round = 0; round < 2; ++round) {
    spans = stats.snapshot();
    for (const auto& span : spans) {
      EXPECT_EQ(span.count, 0) << span.label << " round " << round;
      EXPECT_DOUBLE_EQ(span.rate_per_s, 0.0) << span.label;
    }
  }
}

TEST_F(LiveTelemetryTest, WindowQuantilesComeFromTheMergedHistogram) {
  ASSERT_TRUE(configure(windows_config()));
  set_window_clock_us(1'000'000);
  WindowedStats& stats =
      WindowRegistry::instance().stats("test.quantiles", latency_bounds_us());
  // 100 samples spread 1..100 us: p50 lands near 50, p99 near 100.
  for (int i = 1; i <= 100; ++i) stats.record(static_cast<double>(i));
  const auto spans = stats.snapshot();
  const auto* w10s = span_of(spans, "10s");
  ASSERT_TRUE(w10s);
  EXPECT_EQ(w10s->count, 100);
  EXPECT_NEAR(w10s->histogram.percentile(0.50), 50.0, 10.0);
  EXPECT_NEAR(w10s->histogram.percentile(0.99), 100.0, 10.0);
  EXPECT_DOUBLE_EQ(w10s->histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(w10s->histogram.max(), 100.0);

  // The registry snapshot carries the same numbers per span label.
  const json::Value doc = WindowRegistry::instance().snapshot_json();
  const json::Value& entries = doc.at("windows").at("test.quantiles");
  ASSERT_TRUE(entries.is_array());
  ASSERT_EQ(entries.as_array().size(), window_spans().size());
  const json::Value& first = entries.as_array().front();
  EXPECT_EQ(first.at("span").as_string(), "10s");
  EXPECT_DOUBLE_EQ(first.at("count").as_number(), 100.0);
  EXPECT_TRUE(first.at("p50").is_number());
  EXPECT_TRUE(first.at("p95").is_number());
  EXPECT_TRUE(first.at("p99").is_number());
}

// --- prometheus exposition ----------------------------------------------

TEST_F(LiveTelemetryTest, PrometheusNamesAreSanitizedWithThePrefix) {
  EXPECT_EQ(prometheus_name("sched.decision_latency_us"),
            "gts_sched_decision_latency_us");
  EXPECT_EQ(prometheus_name("svc.queue-depth"), "gts_svc_queue_depth");
  EXPECT_EQ(prometheus_name("weird  name!"), "gts_weird__name_");
}

/// Minimal Prometheus 0.0.4 grammar checker mirroring
/// tools/validate_trace.py: every sample's family must be typed, and
/// histogram buckets must be cumulative and +Inf-terminated.
void expect_valid_exposition(const std::string& text) {
  std::map<std::string, std::string> family_type;
  // (family, label-set-minus-le) -> cumulative bucket counts in order.
  std::map<std::string, std::vector<double>> buckets;
  std::map<std::string, double> histogram_count;

  const auto family_of = [](std::string name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        return name.substr(0, name.size() - s.size());
      }
    }
    return name;
  };

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name, type;
      fields >> name >> type;
      EXPECT_EQ(family_type.count(name), 0u) << "duplicate TYPE for " << name;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram" ||
                  type == "summary" || type == "untyped")
          << line;
      family_type[name] = type;
      continue;
    }
    if (line[0] == '#') continue;

    const size_t brace = line.find('{');
    const size_t space = line.find(' ', brace == std::string::npos ? 0 : line.find('}'));
    ASSERT_NE(space, std::string::npos) << "no value: " << line;
    const std::string name =
        line.substr(0, brace == std::string::npos ? space : brace);
    const std::string family = family_of(name);
    ASSERT_TRUE(family_type.count(family))
        << "sample without # TYPE: " << line;
    const std::string value_text = line.substr(space + 1);
    double value = 0.0;
    if (value_text.find("Inf") != std::string::npos) {
      value = std::numeric_limits<double>::infinity();
    } else {
      value = std::stod(value_text);
    }

    if (family_type[family] == "histogram" &&
        name.size() >= 7 && name.compare(name.size() - 7, 7, "_bucket") == 0) {
      // Key the series by its labels with le= stripped.
      std::string labels = brace == std::string::npos
                               ? std::string{}
                               : line.substr(brace, line.find('}') - brace + 1);
      const size_t le = labels.find("le=\"");
      std::string le_value;
      if (le != std::string::npos) {
        const size_t end = labels.find('"', le + 4);
        le_value = labels.substr(le + 4, end - le - 4);
        labels.erase(le, end - le + 2);
      }
      buckets[family + labels].push_back(value);
      if (le_value == "+Inf") {
        histogram_count[family + labels] = value;
      }
    }
    if (family_type[family] == "counter") {
      EXPECT_GE(value, 0.0) << "negative counter: " << line;
    }
  }

  EXPECT_FALSE(family_type.empty()) << "empty exposition";
  for (const auto& [key, series] : buckets) {
    ASSERT_TRUE(histogram_count.count(key)) << key << " has no +Inf bucket";
    double previous = -1.0;
    for (const double v : series) {
      EXPECT_GE(v, previous) << key << " buckets not cumulative";
      previous = v;
    }
  }
}

TEST_F(LiveTelemetryTest, PrometheusTextRoundTripsTheGrammar) {
  ObsConfig config;
  config.metrics = true;
  config.windows = true;
  ASSERT_TRUE(configure(config));
  set_window_clock_us(1'000'000);

  GTS_METRIC_COUNT("sched.decisions", 7);
  GTS_METRIC_GAUGE_SET("svc.queue_depth", 3.0);
  for (int i = 0; i < 50; ++i) {
    GTS_METRIC_HISTOGRAM("sched.decision_latency_us",
                         static_cast<double>(10 * i), latency_bounds_us());
    GTS_METRIC_WINDOW("sched.decision_latency_us",
                      static_cast<double>(10 * i), latency_bounds_us());
  }

  std::string text = prometheus_text();
  append_prometheus_gauge(text, "gts_svc_queue_depth_live",
                          "Jobs queued right now.", 3.0);
  expect_valid_exposition(text);

  // The windowed families are present with the flat label scheme.
  EXPECT_NE(text.find("# TYPE gts_window gauge"), std::string::npos);
  EXPECT_NE(
      text.find("gts_window{metric=\"sched.decision_latency_us\",span=\"10s\","
                "stat=\"p50\"}"),
      std::string::npos);
  EXPECT_NE(
      text.find("gts_window_rate{metric=\"sched.decision_latency_us\","
                "span=\"1m\"}"),
      std::string::npos);
  // The cumulative histogram carries its terminating bucket.
  EXPECT_NE(text.find("gts_sched_decision_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gts_svc_queue_depth_live"), std::string::npos);
}

// --- flight recorder ----------------------------------------------------

TEST_F(LiveTelemetryTest, FlightRingWrapsKeepingTheMostRecentEvents) {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.enable(16);
  ASSERT_GE(recorder.capacity(), 16u);
  const std::size_t capacity = recorder.capacity();

  for (int i = 0; i < 100; ++i) {
    recorder.record(FlightKind::kDecision, i, static_cast<double>(i), 0.0,
                    "wrap", static_cast<double>(i) * 0.5);
  }
  EXPECT_EQ(recorder.recorded(), 100u);

  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), capacity);
  // Oldest first, contiguous, and ending at the newest event.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().seq, 99u);
  EXPECT_EQ(events.back().job, 99);
  EXPECT_DOUBLE_EQ(events.back().sim_s, 49.5);
  EXPECT_EQ(events.front().job, static_cast<int>(100 - capacity));
  EXPECT_STREQ(events.front().detail, "wrap");
}

TEST_F(LiveTelemetryTest, FlightDumpIsParseableJsonlWithSanitizedDetail) {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.enable(64);
  recorder.record(FlightKind::kAdmission, 1, 2.0, 3.0, "plain");
  recorder.record(FlightKind::kError, -1, 0.0, 0.0, "quote\" and\nnewline");

  const std::string dump = recorder.dump_jsonl();
  std::istringstream lines(dump);
  std::string line;
  int parsed = 0;
  std::uint64_t previous_seq = 0;
  while (std::getline(lines, line)) {
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc) << line;
    EXPECT_EQ(doc->at("kind").as_string(), "flight");
    EXPECT_TRUE(doc->at("seq").is_number());
    EXPECT_TRUE(doc->at("wall_us").is_number());
    EXPECT_TRUE(doc->at("job").is_number());
    const std::string event = doc->at("event").as_string();
    EXPECT_TRUE(event == "admission" || event == "error") << event;
    const auto seq = static_cast<std::uint64_t>(doc->at("seq").as_number());
    if (parsed > 0) {
      EXPECT_GT(seq, previous_seq);
    }
    previous_seq = seq;
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
}

TEST_F(LiveTelemetryTest, CheckFailureDumpsTheFlightRingToTheConfiguredPath) {
  const std::string dump_path = temp_path("flight_check_failure.jsonl");
  std::remove(dump_path.c_str());

  ObsConfig config;
  config.flight = true;
  config.flight_capacity = 64;
  config.flight_out = dump_path;
  ASSERT_TRUE(configure(config));
  GTS_FLIGHT(FlightKind::kDecision, 7, 123.0, 0.0, "before-failure");

  // The obs hook consults the failure mode after dumping; kLogAndCount
  // lets the test continue past the failed check.
  check::set_failure_mode(check::FailureMode::kLogAndCount);
  GTS_CHECK(1 + 1 == 3, "deliberate");
  EXPECT_EQ(check::failure_count(), 1u);

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "no dump at " << dump_path;
  bool saw_error = false;
  bool saw_decision = false;
  std::string line;
  while (std::getline(in, line)) {
    const auto doc = json::parse(line);
    ASSERT_TRUE(doc) << line;
    EXPECT_EQ(doc->at("kind").as_string(), "flight");
    const std::string event = doc->at("event").as_string();
    if (event == "error") {
      saw_error = true;
      // The failed condition text lands in the detail field.
      EXPECT_NE(doc->at("detail").as_string().find("1 + 1"),
                std::string::npos);
    }
    if (event == "decision") saw_decision = true;
  }
  EXPECT_TRUE(saw_error) << "check failure not recorded as a kError event";
  EXPECT_TRUE(saw_decision) << "pre-failure history missing from the dump";
  std::remove(dump_path.c_str());
}

// --- lifecycle accounting -----------------------------------------------

jobgraph::JobRequest lifecycle_job(int id, double arrival, double solo_time,
                                   double min_utility) {
  jobgraph::JobRequest request;
  request.id = id;
  request.arrival_time = arrival;
  request.num_gpus = 2;
  request.min_utility = min_utility;
  request.profile.solo_time_pack = solo_time;
  return request;
}

// Five jobs, every transition scripted by hand:
//   1: placed immediately at high utility, finishes     (the happy path)
//   2: postponed twice, degraded placement below its SLO, finishes
//   3: postponed once, clean placement, finishes
//   4: cancelled while still queued
//   5: postponed three times, still queued at the end
TEST_F(LiveTelemetryTest, LifecycleAccountingMatchesAHandComputedTrace) {
  cluster::Recorder recorder;
  recorder.on_submit(lifecycle_job(1, 0.0, 100.0, 0.5));
  recorder.on_submit(lifecycle_job(2, 10.0, 50.0, 0.8));
  recorder.on_submit(lifecycle_job(3, 20.0, 80.0, 0.0));
  recorder.on_submit(lifecycle_job(4, 30.0, 60.0, 0.0));
  recorder.on_submit(lifecycle_job(5, 40.0, 60.0, 0.0));

  recorder.on_place(1, 0.0, {0, 1}, 0.9, true);
  recorder.on_postpone(2);
  recorder.on_postpone(2);
  recorder.on_place(2, 30.0, {2, 3}, 0.7, false);  // below min_utility 0.8
  recorder.on_postpone(3);
  recorder.on_place(3, 40.0, {4, 5}, 1.0, true);
  recorder.on_cancel(4, 50.0);
  recorder.on_postpone(5);
  recorder.on_postpone(5);
  recorder.on_postpone(5);
  recorder.on_finish(2, 110.0);
  recorder.on_finish(1, 120.0);
  recorder.on_finish(3, 140.0);

  const cluster::JobRecord* job1 = recorder.find(1);
  const cluster::JobRecord* job2 = recorder.find(2);
  const cluster::JobRecord* job4 = recorder.find(4);
  const cluster::JobRecord* job5 = recorder.find(5);
  ASSERT_TRUE(job1 && job2 && job4 && job5);

  // Job 1: no wait, JCT 120 s over a 100 s ideal.
  EXPECT_DOUBLE_EQ(job1->waiting_time(), 0.0);
  EXPECT_DOUBLE_EQ(job1->jct_slowdown(), 1.2);
  EXPECT_EQ(job1->postponements, 0);
  EXPECT_FALSE(job1->slo_violated());

  // Job 2: waited 20 s, placed below its declared minimum.
  EXPECT_DOUBLE_EQ(job2->waiting_time(), 20.0);
  EXPECT_EQ(job2->postponements, 2);
  EXPECT_EQ(job2->degradation_events, 1);
  EXPECT_TRUE(job2->slo_violated());
  EXPECT_DOUBLE_EQ(job2->jct_slowdown(), (110.0 - 10.0) / 50.0);

  // Job 4: cancelled jobs are neither placed nor finished.
  EXPECT_TRUE(job4->cancelled);
  EXPECT_FALSE(job4->placed());
  EXPECT_FALSE(job4->finished());
  EXPECT_DOUBLE_EQ(job4->jct_slowdown(), -1.0);

  // Job 5: still queued — postponements accrue, nothing else does.
  EXPECT_EQ(job5->postponements, 3);
  EXPECT_FALSE(job5->placed());

  // Aggregates over the whole trace.
  const sched::LifecycleSummary summary = sched::summarize_lifecycle(recorder);
  EXPECT_EQ(summary.postponements, 6);
  EXPECT_EQ(summary.degradations, 1);
  EXPECT_EQ(recorder.slo_violations(), 1);
  EXPECT_DOUBLE_EQ(recorder.makespan(), 140.0);
  EXPECT_DOUBLE_EQ(recorder.mean_waiting_time(), (0.0 + 20.0 + 20.0) / 3.0);
  EXPECT_NEAR(summary.mean_jct_slowdown, (1.2 + 2.0 + 1.5) / 3.0, 1e-12);
}

// --- the headline property, extended over the live layer ----------------

TEST_F(LiveTelemetryTest, LiveTelemetryIsAPureObserverOn500JobTrace) {
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

  ObsConfig config;
  config.metrics = true;
  config.windows = true;
  config.flight = true;
  config.flight_capacity = 1024;
  ASSERT_TRUE(configure(config));
  const sched::DriverReport observed = exp::run_policy(
      sched::Policy::kTopoAwareP, jobs, topology, model);

  ASSERT_EQ(baseline.recorder.records().size(), 500u);
  ASSERT_EQ(observed.recorder.records().size(), 500u);
  for (size_t i = 0; i < baseline.recorder.records().size(); ++i) {
    const cluster::JobRecord& a = observed.recorder.records()[i];
    const cluster::JobRecord& b = baseline.recorder.records()[i];
    EXPECT_EQ(a.id, b.id) << "record " << i;
    EXPECT_EQ(a.gpus, b.gpus) << "record " << i;
    EXPECT_DOUBLE_EQ(a.start, b.start) << "record " << i;
    EXPECT_DOUBLE_EQ(a.end, b.end) << "record " << i;
    EXPECT_DOUBLE_EQ(a.placement_utility, b.placement_utility)
        << "record " << i;
    EXPECT_EQ(a.postponements, b.postponements) << "record " << i;
    EXPECT_EQ(a.degradation_events, b.degradation_events) << "record " << i;
  }
  EXPECT_EQ(sched::summarize_lifecycle(observed.recorder).postponements,
            sched::summarize_lifecycle(baseline.recorder).postponements);
  EXPECT_EQ(observed.recorder.slo_violations(),
            baseline.recorder.slo_violations());

  // And the layer actually observed the run.
  EXPECT_GT(WindowRegistry::instance().instrument_count(), 0u);
  EXPECT_GT(FlightRecorder::instance().recorded(), 0u);
}

// --- concurrency (the TSan target) --------------------------------------

TEST_F(LiveTelemetryTest, ConcurrentRecordAndSnapshotAreRaceFree) {
  ObsConfig config;
  config.windows = true;
  config.flight = true;
  config.flight_capacity = 256;
  ASSERT_TRUE(configure(config));
  WindowedStats& stats =
      WindowRegistry::instance().stats("test.concurrent", latency_bounds_us());

  constexpr int kWriters = 4;
  constexpr int kSamplesPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)stats.snapshot();
      (void)FlightRecorder::instance().snapshot();
      (void)prometheus_text();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kSamplesPerWriter; ++i) {
        stats.record(static_cast<double>(i % 100));
        GTS_FLIGHT(FlightKind::kDecision, w, static_cast<double>(i), 0.0,
                   "concurrent");
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(FlightRecorder::instance().recorded(),
            static_cast<std::uint64_t>(kWriters) * kSamplesPerWriter);
  // Sample loss from slot reclaims racing the recorder is tolerated but
  // must be tiny; all samples land in the 5m window absent expiry.
  const auto spans = stats.snapshot();
  const auto* w5m = span_of(spans, "5m");
  ASSERT_TRUE(w5m);
  EXPECT_GT(w5m->count, kWriters * kSamplesPerWriter * 9 / 10);
}

}  // namespace
}  // namespace gts::obs
