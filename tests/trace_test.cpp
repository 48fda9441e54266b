#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "exp/scenarios.hpp"
#include "metrics/stats.hpp"
#include "topo/builders.hpp"
#include "trace/arrivals.hpp"
#include "trace/generator.hpp"
#include "trace/tracefile.hpp"
#include "util/rng.hpp"

namespace gts::trace {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  topo::TopologyGraph topo_ = topo::builders::power8_minsky();
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
};

TEST_F(TraceTest, GeneratorProducesRequestedCount) {
  GeneratorOptions options;
  options.job_count = 50;
  const auto jobs = generate_workload(options, model_, topo_);
  ASSERT_EQ(jobs.size(), 50u);
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<int>(i));
    if (i > 0) {
      EXPECT_GT(jobs[i].arrival_time, jobs[i - 1].arrival_time);
    }
    EXPECT_GT(jobs[i].profile.solo_time_pack, 0.0);
  }
}

TEST_F(TraceTest, GeneratorArrivalRateMatchesLambda) {
  GeneratorOptions options;
  options.job_count = 5000;
  options.arrival_rate_per_minute = 10.0;
  const auto jobs = generate_workload(options, model_, topo_);
  const double span = jobs.back().arrival_time - jobs.front().arrival_time;
  const double per_minute = (jobs.size() - 1) / (span / 60.0);
  EXPECT_NEAR(per_minute, 10.0, 0.5);
}

TEST_F(TraceTest, GeneratorBatchDistributionIsBinomial) {
  GeneratorOptions options;
  options.job_count = 20000;
  options.batch_binomial_p = 0.5;
  const auto jobs = generate_workload(options, model_, topo_);
  std::array<int, jobgraph::kBatchClassCount> counts{};
  for (const auto& job : jobs) {
    ++counts[static_cast<size_t>(job.profile.batch)];
  }
  // Binomial(3, 0.5): probabilities 1/8, 3/8, 3/8, 1/8.
  const double n = static_cast<double>(jobs.size());
  EXPECT_NEAR(counts[0] / n, 0.125, 0.01);
  EXPECT_NEAR(counts[1] / n, 0.375, 0.015);
  EXPECT_NEAR(counts[2] / n, 0.375, 0.015);
  EXPECT_NEAR(counts[3] / n, 0.125, 0.01);
}

TEST_F(TraceTest, GeneratorNnDistributionIsBinomial) {
  GeneratorOptions options;
  options.job_count = 20000;
  const auto jobs = generate_workload(options, model_, topo_);
  std::array<int, jobgraph::kNeuralNetCount> counts{};
  for (const auto& job : jobs) {
    ++counts[static_cast<size_t>(job.profile.nn)];
  }
  // Binomial(2, 0.5): 1/4, 1/2, 1/4.
  const double n = static_cast<double>(jobs.size());
  EXPECT_NEAR(counts[0] / n, 0.25, 0.015);
  EXPECT_NEAR(counts[1] / n, 0.50, 0.015);
  EXPECT_NEAR(counts[2] / n, 0.25, 0.015);
}

TEST_F(TraceTest, GeneratorMinUtilityFollowsGpuCount) {
  GeneratorOptions options;
  options.job_count = 200;
  const auto jobs = generate_workload(options, model_, topo_);
  for (const auto& job : jobs) {
    EXPECT_DOUBLE_EQ(job.min_utility, job.num_gpus == 1 ? 0.3 : 0.5);
  }
}

TEST_F(TraceTest, GeneratorDeterministicPerSeed) {
  GeneratorOptions options;
  options.job_count = 20;
  const auto a = generate_workload(options, model_, topo_);
  const auto b = generate_workload(options, model_, topo_);
  options.seed = 43;
  const auto c = generate_workload(options, model_, topo_);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_time, b[i].arrival_time);
    EXPECT_EQ(a[i].num_gpus, b[i].num_gpus);
  }
  bool any_difference = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival_time != c[i].arrival_time) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(TraceTest, RoundTripThroughJsonl) {
  const auto jobs = exp::table1_jobs(model_, topo_);
  const auto report =
      exp::run_policy(sched::Policy::kTopoAwareP, jobs, topo_, model_);
  const auto records = from_recorder(report.recorder, jobs);
  ASSERT_EQ(records.size(), jobs.size());

  const std::string path = "/tmp/gts_trace_test.jsonl";
  ASSERT_TRUE(write_jsonl(records, path).is_ok());
  const auto loaded = read_jsonl(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  ASSERT_EQ(loaded->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*loaded)[i].id, records[i].id);
    EXPECT_DOUBLE_EQ((*loaded)[i].arrival, records[i].arrival);
    EXPECT_EQ((*loaded)[i].nn, records[i].nn);
    EXPECT_EQ((*loaded)[i].gpus, records[i].gpus);
    EXPECT_DOUBLE_EQ((*loaded)[i].end, records[i].end);
  }
  std::remove(path.c_str());
}

TEST_F(TraceTest, TraceToWorkloadReplays) {
  const auto jobs = exp::table1_jobs(model_, topo_);
  const auto report =
      exp::run_policy(sched::Policy::kFcfs, jobs, topo_, model_);
  const auto records = from_recorder(report.recorder, jobs);
  const auto replay = to_workload(records, model_, topo_);
  ASSERT_EQ(replay.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(replay[i].id, jobs[i].id);
    EXPECT_DOUBLE_EQ(replay[i].arrival_time, jobs[i].arrival_time);
    EXPECT_EQ(replay[i].num_gpus, jobs[i].num_gpus);
    EXPECT_EQ(replay[i].iterations, jobs[i].iterations);
    EXPECT_EQ(replay[i].profile.nn, jobs[i].profile.nn);
  }
}

TEST_F(TraceTest, ReadRejectsCorruptLines) {
  const std::string path = "/tmp/gts_trace_bad.jsonl";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("{\"id\": 1, \"nn\": \"AlexNet\"\n", f);  // unterminated
    std::fclose(f);
  }
  EXPECT_FALSE(read_jsonl(path).has_value());
  std::remove(path.c_str());
}

TEST(ArrivalsTest, CountAndMonotonicity) {
  util::Rng rng(7);
  const auto arrivals = poisson_arrivals(100, 10.0, rng);
  ASSERT_EQ(arrivals.size(), 100u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i], arrivals[i - 1]);
  }
}

TEST(ArrivalsTest, RateMatchesLambda) {
  util::Rng rng(11);
  // lambda = 10 jobs/minute -> mean inter-arrival 6 s.
  const auto arrivals = poisson_arrivals(20000, 10.0, rng);
  std::vector<double> gaps;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    gaps.push_back(arrivals[i] - arrivals[i - 1]);
  }
  EXPECT_NEAR(metrics::mean(gaps), 6.0, 0.15);
  // Exponential: stddev == mean.
  EXPECT_NEAR(metrics::stddev(gaps), 6.0, 0.2);
}

TEST(ArrivalsTest, StartTimeOffsets) {
  util::Rng rng(13);
  const auto arrivals = poisson_arrivals(10, 10.0, rng, 100.0);
  EXPECT_GT(arrivals.front(), 100.0);
}

}  // namespace
}  // namespace gts::trace
