#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "cluster/recorder.hpp"
#include "cluster/state.hpp"
#include "perf/profile.hpp"
#include "topo/builders.hpp"

namespace gts::cluster {
namespace {

using jobgraph::JobRequest;
using jobgraph::NeuralNet;

class ClusterStateTest : public ::testing::Test {
 protected:
  topo::TopologyGraph topo_ = topo::builders::power8_minsky();
  perf::DlWorkloadModel model_{perf::CalibrationParams::paper_minsky()};
  ClusterState state_{topo_, model_};

  JobRequest job(int id, int gpus, int batch = 1,
                 NeuralNet nn = NeuralNet::kAlexNet,
                 long long iterations = 100) {
    return perf::make_profiled_dl(id, 0.0, nn, batch, gpus, 0.0, model_,
                                  topo_, iterations);
  }
};

TEST_F(ClusterStateTest, InitiallyAllFree) {
  EXPECT_EQ(state_.free_gpu_count(), 4);
  EXPECT_EQ(state_.free_gpus(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(state_.running_job_count(), 0);
  EXPECT_DOUBLE_EQ(state_.fragmentation(), 1.0);
}

TEST_F(ClusterStateTest, PlaceAndRemoveRestoreState) {
  state_.place(job(1, 2), {0, 1}, 0.0);
  EXPECT_EQ(state_.free_gpu_count(), 2);
  EXPECT_FALSE(state_.gpu_free(0));
  EXPECT_EQ(state_.gpu_owner(0), 1);
  EXPECT_EQ(state_.running_job_count(), 1);
  EXPECT_DOUBLE_EQ(state_.fragmentation(), 0.5);

  state_.remove(1, 10.0);
  EXPECT_EQ(state_.free_gpu_count(), 4);
  EXPECT_TRUE(state_.gpu_free(0));
  EXPECT_EQ(state_.running_job_count(), 0);
  for (const int flows : state_.link_flows()) EXPECT_EQ(flows, 0);
}

TEST_F(ClusterStateTest, LinkFlowsRegisteredAlongPaths) {
  state_.place(job(1, 2), {0, 2}, 0.0);  // cross-socket pair
  const perf::LinkFlows& flows = state_.link_flows();
  int total = 0;
  for (const int f : flows) total += f;
  // The 0-2 path has 4 links (GPU0-S0, S0-M, M-S1, S1-GPU2).
  EXPECT_EQ(total, 4);
}

TEST_F(ClusterStateTest, FlowsExcludingRemovesOwnContribution) {
  state_.place(job(1, 2), {0, 2}, 0.0);
  const perf::LinkFlows without = state_.flows_excluding(1);
  for (const int f : without) EXPECT_EQ(f, 0);
}

TEST_F(ClusterStateTest, ProgressBanksAtCurrentRate) {
  state_.place(job(1, 1, 1, NeuralNet::kAlexNet, 1000), {0}, 0.0);
  const RunningJob* running = state_.find(1);
  ASSERT_NE(running, nullptr);
  const double rate = running->rate;
  EXPECT_GT(rate, 0.0);
  state_.bank_progress(10.0);
  EXPECT_NEAR(state_.find(1)->progress_iterations, rate * 10.0, 1e-9);
}

TEST_F(ClusterStateTest, RatesSlowWhenInterferingJobArrives) {
  state_.place(job(1, 1, 1), {0}, 0.0);
  const double solo_rate = state_.find(1)->rate;
  state_.place(job(2, 1, 1), {1}, 5.0);  // same socket: interference
  const double shared_rate = state_.find(1)->rate;
  EXPECT_LT(shared_rate, solo_rate);
  state_.remove(2, 10.0);
  EXPECT_NEAR(state_.find(1)->rate, solo_rate, 1e-12);
}

TEST_F(ClusterStateTest, NextCompletionAccountsForRateChanges) {
  // Solo: 100 iterations at 25 ms -> finishes at 2.5 s.
  state_.place(job(1, 1, 1, NeuralNet::kAlexNet, 100), {0}, 0.0);
  const auto first = state_.next_completion(0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, 1);
  EXPECT_NEAR(first->second, 100 * 0.0250, 0.01);

  // An interfering neighbor placed at t=1 stretches the remainder.
  state_.place(job(2, 1, 1, NeuralNet::kAlexNet, 10000), {1}, 1.0);
  const auto second = state_.next_completion(1.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->first, 1);
  EXPECT_GT(second->second, first->second);
}

TEST_F(ClusterStateTest, CoRunnersScopedByMachineAndSocket) {
  state_.place(job(1, 1, 1), {0}, 0.0);
  const std::vector<int> same_socket = {1};
  const std::vector<int> other_socket = {2};
  const auto near = state_.co_runners(same_socket, -1);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_TRUE(near[0].same_socket);
  const auto far = state_.co_runners(other_socket, -1);
  ASSERT_EQ(far.size(), 1u);
  EXPECT_FALSE(far[0].same_socket);
  // Excluding the job itself.
  EXPECT_TRUE(state_.co_runners(same_socket, 1).empty());
}

TEST_F(ClusterStateTest, FragmentationAfterHypothetical) {
  EXPECT_DOUBLE_EQ(state_.fragmentation_after(std::vector<int>{0, 1}), 0.5);
  EXPECT_DOUBLE_EQ(state_.fragmentation_after(std::vector<int>{0, 2}), 0.5);
  EXPECT_DOUBLE_EQ(
      state_.fragmentation_after(std::vector<int>{0, 1, 2, 3}), 0.0);
}

TEST_F(ClusterStateTest, PredictIterationSeesContention) {
  const JobRequest candidate = job(9, 2, 1);
  const std::vector<int> pack = {0, 1};
  const double solo = state_.predict_iteration(candidate, pack).total_s;
  state_.place(job(1, 2, 1), {2, 3}, 0.0);
  const double contended = state_.predict_iteration(candidate, pack).total_s;
  EXPECT_GT(contended, solo);
}

TEST_F(ClusterStateTest, P2pFlagTracksPlacement) {
  state_.place(job(1, 2, 1), {0, 1}, 0.0);
  EXPECT_TRUE(state_.find(1)->p2p);
  state_.place(job(2, 2, 1), {2, 3}, 0.0);
  EXPECT_TRUE(state_.find(2)->p2p);
  state_.remove(1, 1.0);
  state_.remove(2, 1.0);
  state_.place(job(3, 2, 1), {0, 2}, 2.0);
  EXPECT_FALSE(state_.find(3)->p2p);
}

TEST_F(ClusterStateTest, MultiMachineFreeLists) {
  const topo::TopologyGraph cluster = topo::builders::cluster(
      2, topo::builders::MachineShape::kPower8Minsky);
  ClusterState state(cluster, model_);
  state.place(perf::make_profiled_dl(1, 0.0, NeuralNet::kAlexNet, 1, 2, 0.0,
                                     model_, cluster, 100),
              {4, 5}, 0.0);
  EXPECT_EQ(state.free_gpus_of_machine(0).size(), 4u);
  EXPECT_EQ(state.free_gpus_of_machine(1).size(), 2u);
  EXPECT_EQ(state.machines_of(std::vector<int>{0, 5}),
            (std::vector<int>{0, 1}));
}

// ------------------------------------------------------------ Recorder ----

TEST(RecorderTest, LifecycleAndDerivedMetrics) {
  Recorder recorder;
  JobRequest job = JobRequest::make_dl(1, 5.0, NeuralNet::kAlexNet, 1, 2, 0.5);
  job.profile.solo_time_pack = 100.0;
  recorder.on_submit(job);

  const JobRecord* record = recorder.find(1);
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->placed());

  recorder.on_place(1, 10.0, {0, 1}, 0.8, true);
  EXPECT_TRUE(recorder.find(1)->placed());
  EXPECT_DOUBLE_EQ(recorder.find(1)->waiting_time(), 5.0);
  EXPECT_FALSE(recorder.find(1)->slo_violated());

  recorder.on_finish(1, 130.0);
  const JobRecord& done = *recorder.find(1);
  EXPECT_DOUBLE_EQ(done.execution_time(), 120.0);
  EXPECT_NEAR(done.qos_slowdown(), 0.2, 1e-9);
  EXPECT_NEAR(done.qos_wait_slowdown(), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(recorder.makespan(), 130.0);
}

// makespan() is a running max. A seeded mix of submits, finishes, cancels
// and imports (finished, cancelled, rejected and live records) must keep
// it equal to the max end over finished records after every call.
TEST(RecorderTest, MakespanTracksTheLatestFinishedRecord) {
  std::mt19937_64 rng(20261018);
  const auto uniform = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  Recorder recorder;
  std::vector<int> live;
  int next_id = 0;
  for (int step = 0; step < 2000; ++step) {
    const double t = 0.5 * uniform(4000);
    switch (live.empty() ? 0 : uniform(4)) {
      case 0:
        recorder.on_submit(
            JobRequest::make_dl(next_id, t, NeuralNet::kAlexNet, 1, 1, 0.0));
        live.push_back(next_id++);
        break;
      case 1:
      case 2: {
        const size_t pick =
            static_cast<size_t>(uniform(static_cast<int>(live.size())));
        if (uniform(3) == 0) {
          recorder.on_cancel(live[pick], t);
        } else {
          recorder.on_finish(live[pick], t);
        }
        live.erase(live.begin() + static_cast<long>(pick));
        break;
      }
      default: {
        JobRecord record;
        record.id = next_id++;
        const int state = uniform(4);  // live, finished, cancelled, rejected
        if (state == 1 || state == 2) record.end = t;
        record.cancelled = state == 2;
        record.rejected = state == 3;
        ASSERT_TRUE(recorder.import_record(record));
        break;
      }
    }
    double expected = 0.0;
    for (const JobRecord& record : recorder.records()) {
      if (record.finished()) expected = std::max(expected, record.end);
    }
    ASSERT_EQ(recorder.makespan(), expected) << "step " << step;
  }
}

TEST(RecorderTest, SloViolationWhenPlacedBelowThreshold) {
  Recorder recorder;
  JobRequest job = JobRequest::make_dl(1, 0.0, NeuralNet::kAlexNet, 4, 2, 0.5);
  recorder.on_submit(job);
  recorder.on_place(1, 0.0, {0, 2}, 0.3, false);
  EXPECT_TRUE(recorder.find(1)->slo_violated());
  EXPECT_EQ(recorder.slo_violations(), 1);
}

TEST(RecorderTest, SortedSlowdownsDescend) {
  Recorder recorder;
  for (int id = 0; id < 3; ++id) {
    JobRequest job =
        JobRequest::make_dl(id, 0.0, NeuralNet::kAlexNet, 1, 1, 0.0);
    job.profile.solo_time_pack = 100.0;
    recorder.on_submit(job);
    recorder.on_place(id, 0.0, {0}, 1.0, true);
    recorder.on_finish(id, 100.0 + 10.0 * id);
  }
  const auto slowdowns = recorder.sorted_qos_slowdowns();
  ASSERT_EQ(slowdowns.size(), 3u);
  EXPECT_GE(slowdowns[0], slowdowns[1]);
  EXPECT_GE(slowdowns[1], slowdowns[2]);
  EXPECT_NEAR(slowdowns[0], 0.2, 1e-9);
}

TEST(RecorderTest, TimelineRendersJobs) {
  const topo::TopologyGraph topo = topo::builders::power8_minsky();
  Recorder recorder;
  JobRequest job = JobRequest::make_dl(7, 0.0, NeuralNet::kAlexNet, 1, 2, 0.0);
  job.profile.solo_time_pack = 10.0;
  recorder.on_submit(job);
  recorder.on_place(7, 0.0, {0, 1}, 1.0, true);
  recorder.on_finish(7, 10.0);
  const std::string timeline = recorder.render_timeline(topo, 10.0, 20);
  EXPECT_NE(timeline.find("GPU0"), std::string::npos);
  EXPECT_NE(timeline.find('7'), std::string::npos);  // job id glyph
}

}  // namespace
}  // namespace gts::cluster
