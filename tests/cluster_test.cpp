#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "cluster/recorder.hpp"
#include "cluster/state.hpp"
#include "perf/profile.hpp"
#include "sched/utility.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

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

TEST_F(ClusterStateTest, FlowDeltaRemovesOwnContribution) {
  state_.place(job(1, 2), {0, 2}, 0.0);
  const RunningJob& running = *state_.find(1);
  // One cross-socket edge: each of its 4 links carries one own flow.
  ASSERT_EQ(running.flow_link_counts.size(), 4u);
  for (const auto& [link, count] : running.flow_link_counts) {
    EXPECT_EQ(count, 1);
  }
  // The global table minus the job's own counts reads as an empty table.
  const perf::LinkFlows empty(static_cast<size_t>(topo_.link_count()), 0);
  const perf::IterationBreakdown with_delta =
      model_.iteration(running.request, running.gpus, topo_,
                       &state_.link_flows(), {}, running.flow_link_counts);
  const perf::IterationBreakdown on_empty =
      model_.iteration(running.request, running.gpus, topo_, &empty);
  EXPECT_EQ(with_delta.effective_bw_gbps, on_empty.effective_bw_gbps);
  EXPECT_EQ(with_delta.total_s, on_empty.total_s);
  const perf::IterationBreakdown contended = model_.iteration(
      running.request, running.gpus, topo_, &state_.link_flows());
  EXPECT_LT(contended.effective_bw_gbps, on_empty.effective_bw_gbps);
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
  CoRunnerScratch scratch;
  state_.co_runners_into(same_socket, -1, scratch);
  ASSERT_EQ(scratch.co.size(), 1u);
  EXPECT_TRUE(scratch.co[0].same_socket);
  state_.co_runners_into(other_socket, -1, scratch);
  ASSERT_EQ(scratch.co.size(), 1u);
  EXPECT_FALSE(scratch.co[0].same_socket);
  // Excluding the job itself: it stays in the gather, not in the result.
  state_.co_runners_into(same_socket, 1, scratch);
  EXPECT_TRUE(scratch.co.empty());
  EXPECT_EQ(scratch.ids, (std::vector<int>{1}));
}

TEST_F(ClusterStateTest, FragmentationAfterHypothetical) {
  // Eq. 5 over the touched machine (here the whole cluster), counting the
  // candidate's GPUs as taken.
  const sched::UtilityModel utility;
  EXPECT_DOUBLE_EQ(
      utility.evaluate(job(9, 2), std::vector<int>{0, 1}, state_).frag_omega,
      0.5);
  EXPECT_DOUBLE_EQ(
      utility.evaluate(job(9, 2), std::vector<int>{0, 2}, state_).frag_omega,
      0.5);
  EXPECT_DOUBLE_EQ(
      utility.evaluate(job(9, 4), std::vector<int>{0, 1, 2, 3}, state_)
          .frag_omega,
      0.0);
}

TEST_F(ClusterStateTest, PredictIterationSeesContention) {
  const JobRequest candidate = job(9, 2, 1);
  const std::vector<int> pack = {0, 1};
  CoRunnerScratch scratch;
  const double solo =
      state_.predict_iteration(candidate, pack, scratch).total_s;
  state_.place(job(1, 2, 1), {2, 3}, 0.0);
  const double contended =
      state_.predict_iteration(candidate, pack, scratch).total_s;
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

// The socket side of the capacity index (free counts, histogram, Eq. 5
// numerator) against a per-GPU recount: the way Eq. 5 was computed before
// the index kept it, summing free/size in double per socket.
struct SocketRecount {
  std::vector<int> free;  // per socket, machine-major
  std::vector<int> hist;  // sockets with exactly k free GPUs, k <= size
  int max_free = 0;
  int sockets = 0;        // sockets holding a GPU
  double fragmentation = 0.0;
};

SocketRecount recount_sockets(const ClusterState& state) {
  const topo::TopologyGraph& topology = state.topology();
  SocketRecount out;
  double total = 0.0;
  for (int machine = 0; machine < topology.machine_count(); ++machine) {
    for (const std::vector<int>& socket : topology.socket_gpu_lists(machine)) {
      const int free = static_cast<int>(std::count_if(
          socket.begin(), socket.end(),
          [&state](int gpu) { return state.gpu_free(gpu); }));
      out.free.push_back(free);
      out.hist.resize(std::max(out.hist.size(), socket.size() + 1), 0);
      ++out.hist[static_cast<size_t>(free)];
      out.max_free = std::max(out.max_free, free);
      if (socket.empty()) continue;
      total += static_cast<double>(free) / static_cast<double>(socket.size());
      ++out.sockets;
    }
  }
  out.fragmentation = out.sockets == 0 ? 0.0 : total / out.sockets;
  return out;
}

/// Eq. 5 over the machines `gpus` touches with `gpus` taken, walked per GPU.
double recount_fragmentation_after(const ClusterState& state,
                                   const std::vector<int>& gpus) {
  const topo::TopologyGraph& topology = state.topology();
  double total = 0.0;
  int sockets = 0;
  for (const int machine : state.machines_of(gpus)) {
    for (const std::vector<int>& socket : topology.socket_gpu_lists(machine)) {
      if (socket.empty()) continue;
      int free = 0;
      for (const int gpu : socket) {
        if (state.gpu_free(gpu) &&
            std::find(gpus.begin(), gpus.end(), gpu) == gpus.end()) {
          ++free;
        }
      }
      total += static_cast<double>(free) / static_cast<double>(socket.size());
      ++sockets;
    }
  }
  return sockets == 0 ? 0.0 : total / sockets;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(CapacityIndexTest, SocketIndexMatchesPerGpuRecountUnderChurn) {
  using topo::builders::MachineShape;
  const topo::TopologyGraph topology = topo::builders::mixed_cluster(
      {MachineShape::kPower8Minsky, MachineShape::kPower8Pcie,
       MachineShape::kDgx1});
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  ClusterState state(topology, model);
  util::Rng rng(2026);
  std::vector<int> resident;
  double now = 0.0;
  int next_id = 1;
  int checks = 0;

  const auto expect_index_matches = [&](const char* op) {
    const SocketRecount want = recount_sockets(state);
    std::vector<int> got;
    for (int machine = 0; machine < topology.machine_count(); ++machine) {
      const std::span<const int> free = state.socket_free_counts(machine);
      got.insert(got.end(), free.begin(), free.end());
    }
    EXPECT_EQ(got, want.free) << op;
    const std::span<const int> hist = state.socket_free_histogram();
    EXPECT_EQ(std::vector<int>(hist.begin(), hist.end()), want.hist) << op;
    EXPECT_EQ(state.max_socket_free(), want.max_free) << op;
    EXPECT_EQ(state.fragmentation_sockets(), want.sockets) << op;
    EXPECT_EQ(bits(state.fragmentation()), bits(want.fragmentation)) << op;
    ++checks;
  };

  expect_index_matches("construction");
  for (int step = 0; step < 400; ++step) {
    now += 1.0;
    const std::vector<int> free = state.free_gpus();
    const double roll = rng.uniform();
    if (!free.empty() && (resident.empty() || roll < 0.5)) {
      // Place a 1-4 GPU job on random free GPUs, across machines or not.
      std::vector<int> pool = free;
      const int k = static_cast<int>(
          rng.uniform_int(1, std::min<long long>(4, static_cast<long long>(
                                                        pool.size()))));
      std::vector<int> gpus;
      for (int i = 0; i < k; ++i) {
        const size_t pick = static_cast<size_t>(
            rng.uniform_int(0, static_cast<long long>(pool.size()) - 1));
        gpus.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<long>(pick));
      }
      EXPECT_EQ(bits(state.fragmentation_after(gpus)),
                bits(recount_fragmentation_after(state, gpus)))
          << "step " << step;
      const JobRequest job = perf::make_profiled_dl(
          next_id, now, NeuralNet::kAlexNet, 1, k, 0.0, model, topology);
      state.place(job, gpus, now);
      resident.push_back(next_id++);
      expect_index_matches("place");
      // Busy GPUs in the candidate are not taken twice.
      EXPECT_EQ(bits(state.fragmentation_after(gpus)),
                bits(recount_fragmentation_after(state, gpus)))
          << "step " << step;
    } else if (roll < 0.8) {
      const size_t victim = static_cast<size_t>(
          rng.uniform_int(0, static_cast<long long>(resident.size()) - 1));
      state.remove(resident[victim], now);
      resident.erase(resident.begin() + static_cast<long>(victim));
      expect_index_matches("remove");
    } else {
      // Remove a job and restore it onto the same GPUs, as a snapshot
      // restore would.
      const RunningJob job = *state.find(resident.front());
      state.remove(job.request.id, now);
      expect_index_matches("remove before restore");
      state.restore_job(job.request, job.gpus, job.start_time,
                        job.progress_at(now), job.placement_utility,
                        job.noise_factor, now);
      expect_index_matches("restore_job");
    }
  }
  EXPECT_GT(checks, 400);
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
