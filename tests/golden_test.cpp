// Golden-file regression for the Fig. 8 prototype experiment: the full
// per-policy, per-job schedule (placements, times, utilities) is pinned
// in tests/golden/fig8.json. Any change to the perf model, utility
// weights, DRB tie-breaking or driver event ordering shows up here as a
// precise diff instead of a silent drift of the headline numbers.
//
// The schedule is also pinned bit-exactly by per-policy digests, with
// the placement cache on and off.
//
// When a change is intentional, regenerate the golden file and commit it:
//   build-release/bench/bench_fig8_prototype --golden-out tests/golden/fig8.json
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "decision_digest.hpp"
#include "exp/scenarios.hpp"
#include "json/json.hpp"
#include "perf/model.hpp"
#include "runner/experiments.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"

namespace gts {
namespace {

constexpr double kRelTolerance = 1e-6;

/// Recursively compares `actual` against `expected`; numbers within
/// relative tolerance, everything else exactly. Mismatches report their
/// JSON path.
void expect_same(const json::Value& expected, const json::Value& actual,
                 const std::string& path) {
  ASSERT_EQ(static_cast<int>(expected.type()),
            static_cast<int>(actual.type()))
      << "type mismatch at " << path;
  switch (expected.type()) {
    case json::Type::kNumber: {
      const double want = expected.as_number();
      const double got = actual.as_number();
      const double scale = std::max({1.0, std::fabs(want), std::fabs(got)});
      EXPECT_LE(std::fabs(want - got), kRelTolerance * scale)
          << path << ": expected " << want << ", got " << got;
      return;
    }
    case json::Type::kArray: {
      const json::Array& want = expected.as_array();
      const json::Array& got = actual.as_array();
      ASSERT_EQ(want.size(), got.size()) << "array size at " << path;
      for (size_t i = 0; i < want.size(); ++i) {
        expect_same(want[i], got[i], path + "[" + std::to_string(i) + "]");
      }
      return;
    }
    case json::Type::kObject: {
      const json::Object& want = expected.as_object();
      const json::Object& got = actual.as_object();
      for (const auto& [key, member] : want) {
        ASSERT_TRUE(got.count(key) > 0) << "missing key " << path << "/" << key;
        expect_same(member, got.at(key), path + "/" + key);
      }
      for (const auto& [key, member] : got) {
        (void)member;
        EXPECT_TRUE(want.count(key) > 0)
            << "unexpected key " << path << "/" << key;
      }
      return;
    }
    default:
      EXPECT_TRUE(expected == actual) << "value mismatch at " << path;
      return;
  }
}

TEST(GoldenTest, Fig8PrototypeMatchesGoldenFile) {
  const std::string path = std::string(GTS_GOLDEN_DIR) + "/fig8.json";
  const auto golden = json::parse_file(path);
  ASSERT_TRUE(golden) << golden.error().message
                      << " — regenerate with bench_fig8_prototype "
                         "--golden-out tests/golden/fig8.json";

  const json::Value actual = runner::fig8_payload();
  expect_same(*golden, actual, "");

  // Spot-check the headline result stays the headline result: TOPO-AWARE-P
  // beats BF by roughly the paper's 1.30x on cumulative execution time.
  const double bf =
      actual.at("policies").at("BF").at("cumulative_time_s").as_number();
  const double tp = actual.at("policies")
                        .at("TOPO-AWARE-P")
                        .at("cumulative_time_s")
                        .as_number();
  EXPECT_GT(bf / tp, 1.2);
  EXPECT_EQ(actual.at("policies")
                .at("TOPO-AWARE-P")
                .at("slo_violations")
                .as_int(),
            0);
}

struct PinnedFig8 {
  bool postpone;
  std::uint64_t digest;
};

// Exact per-policy digests of the fig8 schedule (tests/decision_digest.hpp)
// under the hashed placement cache and with the cache off: the cache must
// be a pure memoization. Recorded while the legacy byte-string cache key
// still produced the same schedule, so the digests also carry that proof.
TEST(GoldenTest, Fig8ScheduleMatchesCommittedDigestsWithAndWithoutCache) {
  const topo::TopologyGraph minsky = topo::builders::power8_minsky();
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const std::vector<jobgraph::JobRequest> jobs =
      exp::table1_jobs(model, minsky);

  // Every TOPO-AWARE placement on this workload meets its min_utility, so
  // TOPO-AWARE-P never postpones and both policies share one schedule.
  const PinnedFig8 pinned[] = {
      {false, 0xf749e034c812276eULL},  // TOPO-AWARE
      {true, 0xf749e034c812276eULL},   // TOPO-AWARE-P
  };
  for (const PinnedFig8& pin : pinned) {
    for (const bool cache : {true, false}) {
      sched::TopoAwareScheduler scheduler({}, pin.postpone);
      scheduler.set_placement_cache_enabled(cache);
      sched::DriverOptions options;
      options.record_series = false;
      sched::Driver driver(minsky, model, scheduler, options);
      const sched::DriverReport report = driver.run(jobs);
      const std::uint64_t digest =
          testing_digest::decision_digest(report.recorder);
      EXPECT_EQ(digest, pin.digest)
          << scheduler.name() << " cache=" << cache << " digest "
          << testing_digest::hex(digest);
    }
  }
}

}  // namespace
}  // namespace gts
